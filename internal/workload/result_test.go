package workload

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/types"
)

func TestSummarize(t *testing.T) {
	base := time.Now()
	op := func(kind checker.OpKind, lat time.Duration, rounds int, fast bool, err error) checker.Op {
		return checker.Op{
			Kind: kind, Invoke: base, Return: base.Add(lat),
			Rounds: rounds, Fast: fast, Err: err,
		}
	}
	ops := []checker.Op{
		op(checker.KindWrite, 1*time.Millisecond, 1, true, nil),
		op(checker.KindWrite, 3*time.Millisecond, 2, false, nil),
		op(checker.KindRead, 2*time.Millisecond, 1, true, nil),
		op(checker.KindRead, 4*time.Millisecond, 2, false, nil),
		op(checker.KindWrite, 0, 0, false, ErrSpecGhost),
		op(checker.KindRead, 0, 0, false, errors.New("boom")),
	}
	res := Summarize(ops, 2*time.Second)
	if res.Ops != 4 || res.Writes != 2 || res.Reads != 2 {
		t.Fatalf("counts: %+v", res)
	}
	if res.Ghosts != 1 || res.Errors != 1 {
		t.Fatalf("ghosts=%d errors=%d", res.Ghosts, res.Errors)
	}
	if res.Rounds != 6 || res.RoundsPerOp != 1.5 {
		t.Fatalf("rounds=%d per-op=%v", res.Rounds, res.RoundsPerOp)
	}
	if res.FastFrac != 0.5 {
		t.Fatalf("fast frac %v", res.FastFrac)
	}
	if res.Throughput != 2.0 {
		t.Fatalf("throughput %v", res.Throughput)
	}
	if res.Latency.P50 != 2*time.Millisecond || res.Latency.P999 != 4*time.Millisecond {
		t.Fatalf("latency %+v", res.Latency)
	}
	if res.WriteLatency.P50 != 1*time.Millisecond || res.ReadLatency.P50 != 2*time.Millisecond {
		t.Fatalf("by-kind latency %+v %+v", res.WriteLatency, res.ReadLatency)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	res := Summarize(nil, 0)
	if res.Ops != 0 || res.Throughput != 0 || res.Latency.P99 != 0 {
		t.Fatalf("zero history should summarize to zero: %+v", res)
	}
}

// TestOpenLoopKV offers fixed-rate load to an in-memory KV store and
// checks the history is non-trivial, atomic per key, and summarizes
// with the open-loop window.
func TestOpenLoopKV(t *testing.T) {
	cfg := core.Config{T: 1, B: 0, NumReaders: 2,
		RoundTimeout: 50 * time.Millisecond, OpTimeout: 10 * time.Second}
	st, err := kv.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	gen := OpenLoop{
		Keys: []string{"a", "b", "c"},
		Rate: 2000, Seed: 7, QueueDepth: 64,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	rec, err := gen.Run(ctx, KVDriver{S: st})
	if err != nil {
		t.Fatalf("open loop: %v", err)
	}
	res := Summarize(rec.Ops(), time.Since(start))
	if res.Ops < 100 {
		t.Fatalf("too few ops for a 500ms window at 2k/s: %+v", res)
	}
	if res.Writes == 0 || res.Reads == 0 {
		t.Fatalf("mix collapsed: %+v", res)
	}
	if res.Latency.P50 <= 0 {
		t.Fatalf("latency percentiles missing: %+v", res)
	}
	if vs := checker.CheckAtomicityPerKey(rec.Ops()); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

// TestOpenLoopShedsWhenBehind drives an offered rate far beyond what a
// one-op-at-a-time blocked driver can serve and checks arrivals are
// shed with ErrOverload instead of blocking the clock.
func TestOpenLoopShedsWhenBehind(t *testing.T) {
	d := &slowDriver{readers: 1, delay: 20 * time.Millisecond}
	gen := OpenLoop{Keys: []string{"k"}, Rate: 5000, Seed: 1, QueueDepth: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	rec, err := gen.Run(ctx, d)
	if err != nil {
		t.Fatalf("open loop: %v", err)
	}
	res := Summarize(rec.Ops(), 200*time.Millisecond)
	if res.Errors == 0 {
		t.Fatalf("expected shed arrivals, got %+v", res)
	}
}

// slowDriver serves every operation after a fixed delay — a stand-in
// for a saturated deployment.
type slowDriver struct {
	readers int
	delay   time.Duration
	seq     atomic.Int64
}

func (d *slowDriver) NumReaders() int { return d.readers }
func (d *slowDriver) MultiKey() bool  { return true }

func (d *slowDriver) Write(_ string, v types.Value) (types.Tagged, OpMeta, error) {
	time.Sleep(d.delay)
	return types.Tagged{TS: types.TS(d.seq.Add(1)), Val: v}, OpMeta{Rounds: 1, Fast: true}, nil
}

func (d *slowDriver) Read(int, string) (types.Tagged, OpMeta, error) {
	time.Sleep(d.delay)
	return types.Tagged{TS: types.TS(d.seq.Load())}, OpMeta{Rounds: 1, Fast: true}, nil
}
