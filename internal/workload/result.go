package workload

import (
	"errors"
	"math"
	"slices"
	"time"

	"luckystore/internal/checker"
)

// Result summarizes one traffic run's recorded history: operation and
// round counts, the fast-path fraction, ghost-stamp retries, and
// client-observed latency percentiles. It is the single reporting path
// shared by the chaos engine and the luckyload SLO harness — both
// summarize a checker history through Summarize, so their numbers are
// computed the same way and their JSON artifacts stay comparable.
type Result struct {
	// Ops counts successful operations; Writes + Reads == Ops.
	Ops    int `json:"ops"`
	Writes int `json:"writes"`
	Reads  int `json:"reads"`
	// Errors counts failed operations, excluding ghost entries.
	Errors int `json:"errors,omitempty"`
	// Ghosts counts abandoned speculative pre-writes (stamps that may
	// linger on servers and were retried at a later stamp). They are a
	// write-path retry signal, not completed operations.
	Ghosts int `json:"ghosts,omitempty"`
	// Rounds is the total communication round-trip count of successful
	// operations; RoundsPerOp is the mean.
	Rounds      int     `json:"rounds"`
	RoundsPerOp float64 `json:"rounds_per_op"`
	// FastFrac is the fraction of successful operations that finished
	// in one round — the protocol's headline "lucky" metric.
	FastFrac float64 `json:"fast_frac"`
	// Elapsed is the wall-clock window the summary covers; Throughput
	// is successful operations per second over it. Both are zero when
	// Summarize was given no window.
	Elapsed    time.Duration `json:"elapsed_ns,omitempty"`
	Throughput float64       `json:"throughput_ops_per_sec,omitempty"`
	// Latency percentiles of successful operations, overall and by
	// kind.
	Latency      LatencySummary `json:"latency"`
	WriteLatency LatencySummary `json:"write_latency"`
	ReadLatency  LatencySummary `json:"read_latency"`
}

// LatencySummary holds client-observed latency percentiles in
// nanoseconds (JSON) / time.Duration (Go).
type LatencySummary struct {
	P50  time.Duration `json:"p50_ns"`
	P95  time.Duration `json:"p95_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
}

// summarizeLatency computes percentiles over a sample set; it sorts
// its argument in place.
func summarizeLatency(samples []time.Duration) LatencySummary {
	slices.Sort(samples)
	return LatencySummary{
		P50: percentile(samples, 0.50), P95: percentile(samples, 0.95),
		P99: percentile(samples, 0.99), P999: percentile(samples, 0.999),
	}
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of a sorted sample by
// nearest rank: the sample at rank ceil(q·N), 1-based, clamped to
// [1, N]; zero for an empty sample.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// Summarize reduces a recorded history to a Result. elapsed is the
// wall-clock window the ops were generated in (pass 0 if unknown; the
// throughput fields stay zero).
func Summarize(ops []checker.Op, elapsed time.Duration) Result {
	res := Result{Elapsed: elapsed}
	var all, writes, reads []time.Duration
	for _, op := range ops {
		if op.Err != nil {
			if errors.Is(op.Err, ErrSpecGhost) {
				res.Ghosts++
			} else {
				res.Errors++
			}
			continue
		}
		res.Ops++
		res.Rounds += op.Rounds
		if op.Fast {
			res.FastFrac++ // counted here, normalized below
		}
		lat := op.Return.Sub(op.Invoke)
		all = append(all, lat)
		switch op.Kind {
		case checker.KindWrite:
			res.Writes++
			writes = append(writes, lat)
		case checker.KindRead:
			res.Reads++
			reads = append(reads, lat)
		}
	}
	if res.Ops > 0 {
		res.FastFrac /= float64(res.Ops)
		res.RoundsPerOp = float64(res.Rounds) / float64(res.Ops)
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Ops) / elapsed.Seconds()
	}
	res.Latency = summarizeLatency(all)
	res.WriteLatency = summarizeLatency(writes)
	res.ReadLatency = summarizeLatency(reads)
	return res
}
