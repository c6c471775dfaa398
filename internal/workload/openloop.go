package workload

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"time"

	"luckystore/internal/checker"
)

// OpenLoop generates traffic at a fixed offered rate, independent of
// operation completions — the harness shape that exposes queueing
// delay, unlike Continuous's closed loop where a slow system simply
// slows its own clients. Arrivals are produced by one central clock and
// dispatched to bounded per-actor queues: one writer actor per key
// serializes that key's writes (the SWMR contract), one actor per
// reader client serializes its reads. Latency is measured from arrival,
// so time spent queued behind a slow operation counts — the
// coordinated-omission-free number an SLO wants.
type OpenLoop struct {
	// Keys are the registers to exercise. Empty (or a single-register
	// driver) collapses to the one unnamed register.
	Keys []string
	// Rate is the offered load in operations per second, arrivals
	// spaced evenly. Required.
	Rate float64
	// WriteFrac is the probability an arrival is a write; zero means
	// 0.5. Below 1 the driver needs at least one reader.
	WriteFrac float64
	// ValueSize pads written values (0 keeps the short form).
	ValueSize int
	// Seed drives arrival choices (op kind, key) reproducibly.
	Seed int64
	// HotFrac is the probability a read targets Keys[0].
	HotFrac float64
	// QueueDepth bounds each actor's pending-arrival queue; an arrival
	// finding it full is shed and recorded with ErrOverload. Zero means
	// 128.
	QueueDepth int
}

// Run offers load to d until ctx is cancelled and returns the recorded
// history with the first operation error (shed arrivals are recorded
// but do not count as operation errors). An actor whose operation
// failed sheds its later arrivals. Wall time between Run's start and
// return is the window to pass Summarize.
func (g OpenLoop) Run(ctx context.Context, d Driver) (*checker.Recorder, error) {
	if g.Rate <= 0 {
		return nil, fmt.Errorf("workload: open loop needs a positive Rate, got %v", g.Rate)
	}
	writeFrac := cmp.Or(g.WriteFrac, 0.5)
	if writeFrac < 1 && d.NumReaders() == 0 {
		return nil, fmt.Errorf("workload: open loop with WriteFrac %v needs a reader client, driver %T has none", writeFrac, d)
	}
	depth := g.QueueDepth
	if depth <= 0 {
		depth = 128
	}
	e, _ := newEngine(d, g.Keys, 1, g.ValueSize) // one writer always resolves
	for _, a := range e.actors {
		a.q = make(chan job, depth)
	}
	// e.actors[k] is key k's writer; the readers follow.
	readers := e.actors[len(e.keys):]

	// Arrival clock: evenly spaced ticks at the offered rate, each
	// dispatching one operation. A full queue sheds the arrival
	// immediately — the clock never blocks, or the loop would degrade
	// into a closed one.
	go func() {
		defer func() {
			for _, a := range e.actors {
				close(a.q)
			}
		}()
		rng := rand.New(rand.NewSource(g.Seed))
		tick := time.NewTicker(max(time.Duration(float64(time.Second)/g.Rate), time.Nanosecond))
		defer tick.Stop()
		for next := 0; ; {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			k := rng.Intn(len(e.keys))
			a, j := e.actors[k], job{key: e.keys[k], at: time.Now()}
			if rng.Float64() >= writeFrac {
				if g.HotFrac > 0 && rng.Float64() < g.HotFrac {
					j.key = e.keys[0]
				}
				a, next = readers[next], (next+1)%len(readers)
			}
			select {
			case a.q <- j:
			default:
				e.shed(a, j)
			}
		}
	}()
	return e.run(func(a *actor, _ int) (job, bool) {
		j, ok := <-a.q
		return j, ok
	})
}
