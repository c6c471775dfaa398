//go:build !race

package kv

import (
	"testing"

	"luckystore/internal/core"
	"luckystore/internal/metrics"
)

// metricsExtraAllocBudget mirrors core's: a fully instrumented store —
// per-key-class latency histograms, per-server queue gauges, coalescer
// batch widths, core path counters — may add at most one allocation per
// operation over the uninstrumented engine contract.
const metricsExtraAllocBudget = 1

// TestMWFastPathPutAllocsInstrumented re-pins the engine-level MW
// contract with a live registry attached: the speculative Put must stay
// within kvMWAllocBudget plus the metrics margin.
func TestMWFastPathPutAllocsInstrumented(t *testing.T) {
	reg := metrics.NewRegistry()
	st, err := Open(core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1, Writers: 2},
		WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const key = "hot"
	for i := 0; i < 64; i++ {
		if err := st.Put(key, "warm"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		if err := st.Put(key, "steady-state-value"); err != nil {
			t.Fatal(err)
		}
	})
	m, err := st.PutMeta(key)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Fast || !m.Spec || m.Queried {
		t.Fatalf("measurement missed the speculative fast path: %+v", m)
	}
	if allocs > kvMWAllocBudget+metricsExtraAllocBudget+0.5 {
		t.Errorf("instrumented speculative MW Put: %.1f allocs/op, budget %d+%d",
			allocs, kvMWAllocBudget, metricsExtraAllocBudget)
	}

	// The contract is only meaningful if the telemetry actually
	// observed the traffic it rode along with.
	cls := metrics.KeyClass(key)
	if st.met.putLatency[cls].Count() < 300 {
		t.Fatalf("per-key-class put histogram did not move: %d", st.met.putLatency[cls].Count())
	}
}

// TestGetSteadyStateAllocsInstrumented pins the read side of the same
// contract on a plain store.
func TestGetSteadyStateAllocsInstrumented(t *testing.T) {
	reg := metrics.NewRegistry()
	st, err := Open(core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1}, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const key = "hot"
	if err := st.Put(key, "stored"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := st.Get(0, key); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := st.Get(0, key); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > kvMWAllocBudget+metricsExtraAllocBudget+0.5 {
		t.Errorf("instrumented Get: %.1f allocs/op, budget %d+%d",
			allocs, kvMWAllocBudget, metricsExtraAllocBudget)
	}
	cls := metrics.KeyClass(key)
	if st.met.getLatency[cls].Count() < 300 {
		t.Fatalf("per-key-class get histogram did not move: %d", st.met.getLatency[cls].Count())
	}
}
