//go:build !race

package drive_test

import (
	"testing"

	"luckystore/internal/drive"
	"luckystore/internal/metrics"
	"luckystore/internal/transport"
	"luckystore/internal/wire"
)

// A reused Round runs an operation — begin, open, acks, the timer's
// verdict, a grace and a resend — into a reused buffer without
// allocating.
func TestRoundReuseAllocatesNothing(t *testing.T) {
	sh := shape3
	sh.Starved, sh.Retransmits = new(metrics.Counter), new(metrics.Counter)
	r := drive.NewRound(sh)
	var m wire.Message = wire.Read{TSR: 1, Round: 1}
	var out []transport.Outgoing
	cycle := func() {
		out = out[:0]
		r.Begin(t0)
		r.Open(t0, "PW round", true, nil, m, &out)
		r.Ack("s0")
		r.Ack("s0")
		r.Expire(t0.Add(sh.RoundTimeout), &out)
		r.Expire(r.Deadline(), &out)
		r.Ack("s2")
		r.Expire(r.Deadline(), &out)
		if !r.Decided() || len(out) != 6 {
			t.Fatalf("decided %v with %d messages emitted; want the round and its resend", r.Decided(), len(out))
		}
	}
	cycle() // builds the ids, the ack set and the buffer
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a reused round's cycle allocates %.1f times, want 0", n)
	}
}
