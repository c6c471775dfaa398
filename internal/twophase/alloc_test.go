//go:build !race

package twophase

import "testing"

// TestFastReadSteadyStateAllocs holds the two-phase fast READ to core's
// steady-state allocation contract (core's TestGetSteadyStateAllocs):
// once the reader's pooled view and round are warm, a fast READ costs
// at most 5 allocations across all goroutines — the request boxed once
// plus one ack boxed per server, 1 + S = 4 at t = 1, b = fr = 0.
// Excluded under -race, whose instrumentation inflates counts.
func TestFastReadSteadyStateAllocs(t *testing.T) {
	c := newTestCluster(t, Config{T: 1, NumReaders: 1})
	if err := c.Writer().Write("stored"); err != nil {
		t.Fatal(err)
	}
	r := c.Reader(0)
	for i := 0; i < 64; i++ {
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := r.Read(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5.5 {
		t.Errorf("steady-state fast READ: %.1f allocs/op, budget 5", allocs)
	}
	if !r.LastMeta().Fast() {
		t.Fatal("reads were not fast; the measurement did not hit the steady-state path")
	}
}

// TestWriteSteadyStateAllocs holds the two-phase WRITE — core's writer
// with one W round — to what its two rounds box: each round's request
// once plus one ack per server, 2 × (1 + S) = 8 at t = 1, b = fr = 0.
// Excluded under -race, whose instrumentation inflates counts.
func TestWriteSteadyStateAllocs(t *testing.T) {
	c := newTestCluster(t, Config{T: 1, NumReaders: 1})
	w := c.Writer()
	for i := 0; i < 64; i++ {
		if err := w.Write("v"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		if err := w.Write("v"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8.5 {
		t.Errorf("steady-state WRITE: %.1f allocs/op, budget 8", allocs)
	}
	if w.Rounds() != 2 {
		t.Fatalf("WRITE ran %d rounds, want 2", w.Rounds())
	}
}
