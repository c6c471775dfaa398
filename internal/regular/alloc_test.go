//go:build !race

package regular

import "testing"

// TestFastReadSteadyStateAllocs holds the regular fast READ to core's
// steady-state allocation contract (core's TestGetSteadyStateAllocs):
// once the reader's pooled view and round are warm, a fast READ costs
// at most 5 allocations across all goroutines — the request boxed once
// plus one ack boxed per server, 1 + S = 4 at t = 1, b = 0.
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

// TestFastWriteSteadyStateAllocs holds the regular fast WRITE — core's
// writer with one W round — to what its one round boxes: the request
// once plus one ack per server, 1 + S = 4 at t = 1, b = 0.
// Excluded under -race, whose instrumentation inflates counts.
func TestFastWriteSteadyStateAllocs(t *testing.T) {
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
	if allocs > 4.5 {
		t.Errorf("steady-state fast WRITE: %.1f allocs/op, budget 4", allocs)
	}
	if m := w.LastMeta(); !m.Fast {
		t.Fatalf("write %+v was not fast; the measurement did not hit the steady-state path", m)
	}
}
