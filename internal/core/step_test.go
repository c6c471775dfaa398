package core_test

import (
	"testing"
	"time"

	"luckystore/internal/core"
)

// Start/Step by hand, the way a batch driver uses them: two registers'
// operations are advanced round by round from one goroutine. With a
// server down and fw = 0 both WRITEs take the slow path — one Step per
// round, so PW + W2 + W3 is three — and both round timers, armed at
// Start, are waited out together rather than one after the other; the
// READs that follow are lucky (fr = 1) and finish in their first Step.
func TestStartStepDrivesOperationsInLockStep(t *testing.T) {
	const timer = 80 * time.Millisecond
	cfg := core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1, RoundTimeout: timer}
	var cs [2]*core.Cluster
	for i := range cs {
		c, err := core.NewCluster(cfg, core.WithCrashedServer(2))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		cs[i] = c
	}

	type stepper interface{ Step() (bool, error) }
	drive := func(what string, ops [2]stepper, done [2]bool) (steps [2]int) {
		t.Helper()
		for pending := true; pending; {
			pending = false
			for i, op := range ops {
				if done[i] {
					continue
				}
				var err error
				if done[i], err = op.Step(); err != nil {
					t.Fatalf("%s %d: %v", what, i, err)
				}
				steps[i]++
				pending = pending || !done[i]
			}
		}
		return steps
	}

	t0 := time.Now()
	var done [2]bool
	for i, c := range cs {
		var err error
		if done[i], err = c.Writer().Start("v"); err != nil || done[i] {
			t.Fatalf("Writer %d Start = %v, %v; want a round in flight", i, done[i], err)
		}
	}
	steps := drive("WRITE", [2]stepper{cs[0].Writer(), cs[1].Writer()}, done)
	if d := time.Since(t0); d >= 2*timer {
		t.Errorf("two slow WRITEs in lock-step took %v, want about one round timer (%v)", d, timer)
	}
	for i, c := range cs {
		if m := c.Writer().LastMeta(); steps[i] != 3 || m.Rounds != 3 || m.Fast {
			t.Errorf("WRITE %d: %d steps, meta %+v; want 3 steps for 3 rounds, not fast", i, steps[i], m)
		}
	}

	for i, c := range cs {
		var err error
		if done[i], err = c.Reader(0).Start(); err != nil || done[i] {
			t.Fatalf("Reader %d Start = %v, %v; want a round in flight", i, done[i], err)
		}
	}
	steps = drive("READ", [2]stepper{cs[0].Reader(0), cs[1].Reader(0)}, done)
	for i, c := range cs {
		if m := c.Reader(0).LastMeta(); steps[i] != 1 || !m.Fast() || m.Returned.Val != "v" {
			t.Errorf("READ %d: %d steps, meta %+v; want one fast round returning v", i, steps[i], m)
		}
	}

	// Between operations there is nothing to step.
	if _, err := cs[0].Writer().Step(); err == nil {
		t.Error("Writer.Step with no operation in flight succeeded")
	}
	if _, err := cs[0].Reader(0).Step(); err == nil {
		t.Error("Reader.Step with no operation in flight succeeded")
	}
}
