package core

import (
	"time"

	"luckystore/internal/transport"
	"luckystore/internal/wire"
)

// deadlines is an operation's timer state between Expire calls, which
// Writer and Reader share.
type deadlines struct {
	round   time.Time // when the round's timer (or grace cycle) runs out; zero once it gave its verdict
	op      time.Time // when the operation times out
	expired bool      // the round's synchrony timer fired
	inGrace bool      // ... below a quorum: the retransmitGrace cycle is running
}

// arm starts a round's timer. It runs from the start of the round, not
// from the end of the broadcast: a send may be a socket write on this
// goroutine (transport.Coalescer writes through).
func (d *deadlines) arm(timeout time.Duration) {
	d.round, d.expired, d.inGrace = time.Now().Add(timeout), false, false
}

// next is when an expiry next has something to judge.
func (d *deadlines) next() time.Time {
	if !d.round.IsZero() && d.round.Before(d.op) {
		return d.round
	}
	return d.op
}

// expire applies the round's timer at now to a round that holds a
// quorum of acks or not. At a quorum the timer gives its verdict and
// disarms; below one the first expiry starts the retransmitGrace cycle,
// and expire reports true each time a grace runs out below a quorum —
// the round must be re-sent, or abandoned.
func (d *deadlines) expire(now time.Time, quorum bool, m *Metrics) (graceOver bool) {
	if d.round.IsZero() || now.Before(d.round) {
		return false
	}
	d.expired = true
	if quorum {
		d.round = time.Time{}
		return false
	}
	graceOver = d.inGrace
	if !graceOver {
		m.starved()
	}
	d.inGrace, d.round = true, now.Add(retransmitGrace)
	return graceOver
}

// stepper is the non-blocking half of an operation in flight, which
// Writer and Reader share: replies go in by Deliver, the timer's
// verdicts by Expire, and Decided says when the round may Advance.
type stepper interface {
	Deliver(env wire.Envelope)
	Decided() bool
	Deadline() time.Time
	Expire(now time.Time)
}

// await is the blocking half: it feeds the round in flight from ep and
// a timer armed at the round's deadline until the round is decided. A
// timer verdict is judged against every reply that has arrived, not
// only those already consumed, and so is the decided round (the
// fast-path check of Fig. 1 line 8, predicate evaluation in Fig. 2):
// both drain what is queued first.
func await(op stepper, ep transport.Endpoint, a *alarm) error {
	for !op.Decided() {
		select {
		case env, ok := <-ep.Recv():
			if !ok {
				return transport.ErrClosed
			}
			op.Deliver(env)
		case <-a.arm(op.Deadline()):
			a.at = time.Time{}
			drain(op, ep)
			op.Expire(time.Now())
		}
	}
	drain(op, ep)
	return nil
}

// drain delivers the replies already queued on ep.
func drain(op stepper, ep transport.Endpoint) {
	for {
		select {
		case env, ok := <-ep.Recv():
			if !ok {
				return
			}
			op.Deliver(env)
		default:
			return
		}
	}
}

// alarm is the blocking half's pooled timer, re-armed only when the
// deadline it waits for moves. Go 1.23+ timer semantics make Reset safe
// without draining: a pending fire from an earlier deadline is
// discarded by the Reset.
type alarm struct {
	t  *time.Timer
	at time.Time // the deadline t is armed for; zero when disarmed or fired
}

// arm returns the channel that fires at the deadline at.
func (a *alarm) arm(at time.Time) <-chan time.Time {
	if a.t == nil {
		a.t = time.NewTimer(time.Until(at))
	} else if !at.Equal(a.at) {
		a.t.Reset(time.Until(at))
	}
	a.at = at
	return a.t.C
}

// stop disarms the timer once the operation is over.
func (a *alarm) stop() {
	if !a.at.IsZero() {
		a.t.Stop()
		a.at = time.Time{}
	}
}
