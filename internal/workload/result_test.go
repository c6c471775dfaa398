package workload

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
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
	before := slices.Clone(ops)
	res := Summarize(ops, 2*time.Second)
	if !reflect.DeepEqual(ops, before) {
		t.Fatal("Summarize mutated its input")
	}
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

// TestPercentileNearestRankSmallN pins the nearest-rank arithmetic at
// the small sample sizes where off-by-ones live: the p-th percentile
// of N samples is the element at rank ceil(p·N/100), 1-based, clamped
// to [1, N].
func TestPercentileNearestRankSmallN(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		samples []time.Duration
		p       int
		want    time.Duration
	}{
		// N=1: every percentile is the single sample.
		{[]time.Duration{ms(7)}, 1, ms(7)},
		{[]time.Duration{ms(7)}, 50, ms(7)},
		{[]time.Duration{ms(7)}, 99, ms(7)},
		{[]time.Duration{ms(7)}, 100, ms(7)},
		// N=2: p50 → rank ceil(1.0)=1, p51 → rank ceil(1.02)=2.
		{[]time.Duration{ms(1), ms(2)}, 50, ms(1)},
		{[]time.Duration{ms(1), ms(2)}, 51, ms(2)},
		{[]time.Duration{ms(1), ms(2)}, 95, ms(2)},
		// N=3: p50 → rank 2 (the true median), p95 → rank 3.
		{[]time.Duration{ms(1), ms(2), ms(3)}, 50, ms(2)},
		{[]time.Duration{ms(1), ms(2), ms(3)}, 95, ms(3)},
		// N=4: p50 → rank 2, p75 → rank 3, p76 → rank 4.
		{[]time.Duration{ms(1), ms(2), ms(3), ms(4)}, 50, ms(2)},
		{[]time.Duration{ms(1), ms(2), ms(3), ms(4)}, 75, ms(3)},
		{[]time.Duration{ms(1), ms(2), ms(3), ms(4)}, 76, ms(4)},
		// N=20: p95 → rank 19, not 20.
		{seq(ms, 20), 95, ms(19)},
		// N=100: p95 is exactly the 95th sample.
		{seq(ms, 100), 95, ms(95)},
		// p=0 clamps to rank 1 rather than rank 0.
		{seq(ms, 5), 0, ms(1)},
	}
	for _, c := range cases {
		got := percentile(c.samples, float64(c.p)/100)
		if got != c.want {
			t.Errorf("percentile(N=%d, p=%d) = %v, want %v", len(c.samples), c.p, got, c.want)
		}
	}
	if got := Summarize(nil, 0); got != (Result{}) {
		t.Errorf("Summarize(nil, 0) = %+v, want zero", got)
	}
}

func seq(ms func(int) time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = ms(i + 1)
	}
	return out
}

// Percentiles must be monotone and within [min, max] of the sample.
func TestSummarizeQuick(t *testing.T) {
	base := time.Now()
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		ops := make([]checker.Op, len(raw))
		lo, hi := time.Duration(raw[0]), time.Duration(raw[0])
		for i, v := range raw {
			lat := time.Duration(v) * time.Microsecond
			lo, hi = min(lo, lat), max(hi, lat)
			ops[i] = checker.Op{Kind: checker.KindRead, Invoke: base, Return: base.Add(lat)}
		}
		l := Summarize(ops, 0).Latency
		return lo <= l.P50 && l.P50 <= l.P95 && l.P95 <= l.P99 && l.P99 <= l.P999 && l.P999 <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
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
// shed with ErrOverload instead of blocking the clock, each recorded
// under the reader whose queue was full.
func TestOpenLoopShedsWhenBehind(t *testing.T) {
	d := &slowDriver{readers: 2, delay: 20 * time.Millisecond}
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
	shedReads := map[types.ProcID]int{}
	for _, op := range rec.Ops() {
		if op.Kind == checker.KindRead && errors.Is(op.Err, ErrOverload) {
			shedReads[op.Client]++
		}
	}
	for r := 0; r < 2; r++ {
		if shedReads[types.ReaderID(r)] == 0 {
			t.Errorf("no shed read recorded under reader %d: %v", r, shedReads)
		}
	}
}

// An open loop that would route reads to a driver without readers
// refuses to start instead of panicking on its first read arrival.
func TestOpenLoopWithoutReadersRefuses(t *testing.T) {
	st, err := kv.Open(core.Config{T: 1, B: 0, NumReaders: 0,
		RoundTimeout: 10 * time.Millisecond, OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := (OpenLoop{Keys: []string{"a"}, Rate: 1000, Seed: 1}).Run(ctx, KVDriver{S: st}); err == nil {
		t.Fatal("open loop with reads and no reader clients started")
	}
	// All-write traffic needs no reader.
	rec, err := OpenLoop{Keys: []string{"a"}, Rate: 1000, WriteFrac: 1, Seed: 1}.Run(ctx, KVDriver{S: st})
	if err != nil {
		t.Fatalf("write-only open loop: %v", err)
	}
	if res := Summarize(rec.Ops(), 0); res.Writes == 0 || res.Reads != 0 {
		t.Fatalf("write-only open loop recorded %+v", res)
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
func (d *slowDriver) NumWriters() int { return 1 }
func (d *slowDriver) MultiKey() bool  { return true }

func (d *slowDriver) Write(_ int, _ string, v types.Value) (types.Tagged, OpMeta, error) {
	time.Sleep(d.delay)
	return types.Tagged{TS: types.TS(d.seq.Add(1)), Val: v}, OpMeta{Rounds: 1, Fast: true}, nil
}

func (d *slowDriver) Read(int, string) (types.Tagged, OpMeta, error) {
	time.Sleep(d.delay)
	return types.Tagged{TS: types.TS(d.seq.Load())}, OpMeta{Rounds: 1, Fast: true}, nil
}
