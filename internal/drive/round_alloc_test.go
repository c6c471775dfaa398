//go:build !race

package drive_test

import (
	"testing"
	"time"

	"luckystore/internal/drive"
	"luckystore/internal/metrics"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// discard is an endpoint that drops what it is sent, and flushes.
type discard struct{}

func (discard) ID() types.ProcID                      { return types.WriterID() }
func (discard) Recv() <-chan wire.Envelope            { return nil }
func (discard) Close() error                          { return nil }
func (discard) Flush() error                          { return nil }
func (discard) Send(types.ProcID, wire.Message) error { return nil }

// A reused Round runs an operation — begin, open, acks, the timer's
// verdict, a grace and a resend — without allocating.
func TestRoundReuseAllocatesNothing(t *testing.T) {
	sh := shape3
	sh.Starved, sh.Retransmits = new(metrics.Counter), new(metrics.Counter)
	r := drive.NewRound(discard{}, sh)
	var m wire.Message = wire.Read{TSR: 1, Round: 1}
	cycle := func() {
		r.Begin()
		_ = r.Open("PW round", true, nil, m)
		r.Ack("s0")
		r.Ack("s0")
		now := time.Now()
		r.Expire(now.Add(sh.RoundTimeout))
		r.Expire(r.Deadline())
		r.Ack("s2")
		r.Expire(r.Deadline())
		if !r.Decided() {
			t.Fatal("round not decided")
		}
	}
	cycle() // builds the ids, the ack set and the outgoing buffer
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a reused round's cycle allocates %.1f times, want 0", n)
	}
}
