//go:build !race

package drive_test

import (
	"testing"

	"luckystore/internal/drive"
)

// A gated inbox withholds runs and hands them over without allocating:
// the gate, the withheld Puts, the Put that reaches the gate and the
// driver's receives.
func TestGatedPutAllocatesNothing(t *testing.T) {
	in := drive.NewInbox()
	defer in.Close()
	r := drive.NewReplies()
	r.Add(drive.Delivery{})
	cycle := func() {
		in.Gate(3)
		for range 3 {
			if err := in.Put(r); err != nil {
				t.Fatal(err)
			}
		}
		for range 3 {
			<-in.Out()
		}
	}
	cycle() // grows the withheld queue
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a gated cycle allocates %.1f times, want 0", n)
	}
}
