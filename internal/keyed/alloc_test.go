//go:build !race

package keyed

import (
	"fmt"
	"testing"
	"time"

	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// countTask is a task that counts the replies delivered to it, decided
// on its first; start, if set, runs as it starts.
type countTask struct {
	start func()
	until time.Time
	got   int
}

func (k *countTask) Start(time.Time, *[]transport.Outgoing) (bool, error) {
	if k.start != nil {
		k.start()
	}
	return false, nil
}
func (k *countTask) Deliver(wire.Envelope)                                  { k.got++ }
func (k *countTask) Decided() bool                                          { return k.got > 0 }
func (k *countTask) Short() int                                             { return 1 }
func (k *countTask) Deadline() time.Time                                    { return k.until }
func (k *countTask) Expire(time.Time, *[]transport.Outgoing)                {}
func (k *countTask) Advance(time.Time, *[]transport.Outgoing) (bool, error) { return true, nil }
func (k *countTask) End(error)                                              {}

// Routing a 32-reply frame to the driver of its 32 keys takes one pooled
// run and allocates nothing: a driver's pass — route the keys, take the
// frame, deliver its run and recycle it — allocates nothing once warm.
func TestRouteABatchFrameAllocatesNothing(t *testing.T) {
	ep, d := newFrameDemux(t)
	_, dr := inboxDriver(t, d)
	const width = 32
	var (
		frame wire.Batch
		tasks [width]countTask
		subs  [width]*Sub
	)
	until := time.Now().Add(time.Hour)
	for i := range width {
		key := fmt.Sprintf("k%02d", i)
		frame.Msgs = append(frame.Msgs, reply(key, i))
		subs[i] = subscribe(t, d, key)
		tasks[i].until = until
	}
	var msg wire.Message = frame
	from := types.ServerID(0)
	tasks[width-1].start = func() { ep.route(from, msg) }
	cycle := func() {
		for i := range tasks {
			tasks[i].got = 0
			dr.Add(&tasks[i], subs[i])
		}
		dr.Run()
	}
	cycle() // warms the run pool and the driver's slots
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("routing and driving a %d-reply frame allocates %.1f times, want 0", width, n)
	}
	for i := range tasks {
		if tasks[i].got != 1 {
			t.Fatalf("key %d got %d replies, want its one", i, tasks[i].got)
		}
	}
}
