package core

import "time"

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
