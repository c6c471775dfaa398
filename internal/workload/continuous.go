package workload

import (
	"cmp"
	"context"
	"math/rand"
	"time"

	"luckystore/internal/checker"
)

// Continuous generates open-ended traffic until its context is
// cancelled: one writer actor per (key, writer identity) and one actor
// per reader client, each pacing its own operations. It is the traffic
// source the chaos engine runs underneath a fault schedule, so it is
// built to keep going while servers crash, links flap and partitions
// roll — an operation error is recorded (and stops only the actor that
// hit it), never panics the run.
//
// Key choice per read is driven by a seeded RNG, so the operation mix
// is reproducible up to scheduling. HotFrac concentrates reads on
// Keys[0], which is how scenarios script contention phases.
type Continuous struct {
	// Keys are the registers to exercise. Empty (or a single-register
	// driver) collapses to the one unnamed register.
	Keys []string
	// Writers is how many writer identities contend on every key. Zero
	// or one keeps the classic SWMR shape. Higher values are capped at
	// the driver's NumWriters(); a driver with a single identity fails
	// the run with ErrMWUnsupported before any operation starts.
	Writers int
	// ValueSize pads written values (0 keeps the short form).
	ValueSize int
	// Seed makes each actor's key choices reproducible.
	Seed int64
	// HotFrac is the probability a read targets Keys[0] instead of a
	// uniformly chosen key — the contention knob.
	HotFrac float64
	// WritePace and ReadPace are per-actor sleeps between operations;
	// zero means DefaultWritePace/DefaultReadPace. Pacing bounds the
	// history size so checking stays cheap even on a fast simnet.
	WritePace time.Duration
	ReadPace  time.Duration
}

// Default paces: fast enough for heavy contention, slow enough that a
// multi-second run yields a checkable (not million-op) history.
const (
	DefaultWritePace = 2 * time.Millisecond
	DefaultReadPace  = time.Millisecond
)

// Run drives d until ctx is cancelled and returns the recorded
// history together with the first operation error (nil in a clean
// run). Every recorded Op carries its key, so per-key checking applies
// directly.
func (g Continuous) Run(ctx context.Context, d Driver) (*checker.Recorder, error) {
	e, err := newEngine(d, g.Keys, g.Writers, g.ValueSize)
	if err != nil {
		return e.rec, err
	}
	rngs := make([]*rand.Rand, d.NumReaders())
	for r := range rngs {
		rngs[r] = rand.New(rand.NewSource(g.Seed*1000003 + int64(r)))
	}
	return e.run(func(a *actor, i int) (job, bool) {
		// A pace ≤ 0 takes its default.
		j, pace := job{key: a.key}, cmp.Or(max(g.WritePace, 0), DefaultWritePace)
		if a.w < 0 {
			rng := rngs[a.r]
			j.key = e.keys[rng.Intn(len(e.keys))]
			if g.HotFrac > 0 && rng.Float64() < g.HotFrac {
				j.key = e.keys[0]
			}
			pace = cmp.Or(max(g.ReadPace, 0), DefaultReadPace)
		}
		return j, a.err == nil && (i == 1 || sleepCtx(ctx, pace))
	})
}

// sleepCtx sleeps for d or until ctx is done; it reports whether the
// caller should continue.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
