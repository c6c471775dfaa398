package metrics_test

import (
	"slices"
	"testing"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/workload"
)

// The offline latency summary of recorded samples is workload.Summarize;
// this package keeps only the live registry. These tests hold that one
// summariser to the sample cases the registry's package was held to.

// reads returns one successful read per latency, in order.
func reads(lats ...time.Duration) []checker.Op {
	base := time.Now()
	ops := make([]checker.Op, len(lats))
	for i, lat := range lats {
		ops[i] = checker.Op{Kind: checker.KindRead, Invoke: base, Return: base.Add(lat)}
	}
	return ops
}

func TestSummarizeEmpty(t *testing.T) {
	if s := workload.Summarize(nil, 0); s.Ops != 0 || s.Latency != (workload.LatencySummary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", s)
	}
}

func TestSummarizeBasics(t *testing.T) {
	s := workload.Summarize(reads(3*time.Millisecond, 1*time.Millisecond, 2*time.Millisecond), 0)
	if s.Ops != 3 || s.Reads != 3 || s.Latency.P999 != 3*time.Millisecond {
		t.Errorf("summary = %+v", s)
	}
	if s.Latency.P50 != 2*time.Millisecond {
		t.Errorf("p50 = %v, want 2ms", s.Latency.P50)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	ops := reads(5, 1, 3)
	before := slices.Clone(ops)
	workload.Summarize(ops, 0)
	if !slices.Equal(ops, before) {
		t.Errorf("input mutated: %v", ops)
	}
}
