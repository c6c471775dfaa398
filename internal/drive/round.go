package drive

import (
	"errors"
	"fmt"
	"time"

	"luckystore/internal/metrics"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// DefaultRoundTimeout is the default round timer: the client-known bound
// on a request/reply round trip with every correct server
// (2 × t_{c,s_i} in the paper's terms). On the in-memory network a
// round trip takes microseconds, so this leaves a wide synchrony margin
// while keeping tests fast.
const DefaultRoundTimeout = 25 * time.Millisecond

// DefaultOpTimeout bounds a single operation. The algorithms are
// wait-free under the model's assumption of at most t server failures;
// the bound converts a violated assumption (e.g. an experiment crashing
// more than t servers) into an error instead of a hung client.
const DefaultOpTimeout = 30 * time.Second

// ErrOpTimeout is returned when an operation exceeds its bound, which
// can only happen when the failure model's assumptions are violated.
// Each error wrapping it names the client and the phase.
var ErrOpTimeout = errors.New("operation timed out: failure assumptions violated (more than t servers unresponsive?)")

// retransmitGrace separates the synchrony verdict from loss recovery: a
// round whose timer expired below a quorum re-arms for this long before
// re-sending its message. Scheduling jitter on a loaded machine
// routinely delays an in-flight ack past a round timer tuned to link
// delay; actual loss (a TCP conn silently swallowing one write after its
// peer restarts) does not resolve itself at any timescale. The grace
// keeps spurious retransmissions out of the message-complexity
// measurements while still unwedging a genuinely lost broadcast well
// inside any operation deadline. Retransmission itself is always safe:
// server transitions are idempotent max-merges, and duplicate messages
// are already part of the chaos fault model.
const retransmitGrace = 50 * time.Millisecond

// Shape is what every round of one client has in common.
type Shape struct {
	Name    string // the client's operation, named by the op deadline's error ("regular WRITE")
	S, Need int    // the servers, and the acks a round waits for (S − t)
	// RoundTimeout is the round timer and OpTimeout the operation's
	// bound; zero selects DefaultRoundTimeout and DefaultOpTimeout.
	RoundTimeout, OpTimeout time.Duration
	// Starved counts timer expiries below a quorum, Retransmits the
	// resends that follow; nil counts nothing.
	Starved, Retransmits *metrics.Counter
}

// Round is the paper's unit of cost, one communication round-trip, as
// every client writes it: send one message to the servers, collect
// S − t acks — and, in a timed round (the PW round of Fig. 1 line 5,
// READ round 1 of Fig. 2 line 17), the timer's verdict too, unless all S
// answered first. A client keeps one Round for its lifetime, Begins it
// per operation and Opens it per round; the ack set and the server ids
// are reused, so a round allocates nothing.
//
// A Round neither reads the clock nor sends: Begin, Open and Expire take
// the caller's now, and Open and Expire append the round's messages to
// the caller's outgoing buffer, for the driver to send (Driver).
//
// The timer serves loss recovery in every round, timed or not. A round
// still below a quorum when its timer runs out starts the
// retransmitGrace cycle, and each grace that runs out below a quorum
// re-sends the round — same targets, same message — instead of wedging
// until the operation deadline, which fails the operation with
// ErrOpTimeout.
//
// What a client takes from an ack's payload stays the client's: it
// checks that a reply answers the round in flight, counts its sender by
// Ack, and keeps what it needs of it.
type Round struct {
	sh  Shape
	ids []types.ProcID // the S servers, built on first use

	op      time.Time // the operation's deadline
	n       int       // rounds opened since Begin
	phase   string    // the round's name, for the op deadline's error
	timed   bool      // the decision waits for the timer's verdict
	targets []types.ProcID
	m       wire.Message // sent to targets, and again by a resend
	seen    []bool       // servers that acked the round, by index
	acks    int
	timer   time.Time // when the round's timer or grace runs out; zero once it gave its verdict
	// expired: the timer fired; inGrace: ... below a quorum
	expired, inGrace bool
	err              error
}

// NewRound returns the round of a client of shape sh.
func NewRound(sh Shape) Round {
	if sh.RoundTimeout <= 0 {
		sh.RoundTimeout = DefaultRoundTimeout
	}
	if sh.OpTimeout <= 0 {
		sh.OpTimeout = DefaultOpTimeout
	}
	return Round{sh: sh}
}

// Begin starts an operation at now: its deadline runs from there.
func (r *Round) Begin(now time.Time) {
	r.op, r.n, r.err = now.Add(r.sh.OpTimeout), 0, nil
}

// Open starts the operation's next round at now, m to targets (nil:
// every server), with a fresh ack set, and appends its messages to out;
// timed says the decision waits for the timer's verdict. The timer runs
// from now, before the messages leave: their send may be a socket write
// (transport.Coalescer writes through).
func (r *Round) Open(now time.Time, phase string, timed bool, targets []types.ProcID, m wire.Message, out *[]transport.Outgoing) {
	if r.ids == nil {
		r.ids = types.ServerIDs(r.sh.S)
		r.seen = make([]bool, r.sh.S)
	}
	if targets == nil {
		targets = r.ids
	}
	r.n++
	r.phase, r.timed, r.targets, r.m = phase, timed, targets, m
	r.acks, r.expired, r.inGrace = 0, false, false
	clear(r.seen)
	r.timer = now.Add(r.sh.RoundTimeout)
	r.emit(out)
}

// emit appends the round's messages to out.
func (r *Round) emit(out *[]transport.Outgoing) {
	for _, id := range r.targets {
		*out = append(*out, transport.Outgoing{To: id, Msg: r.m})
	}
}

// Server reports whether id names one of the S servers: replies
// claiming any other origin are not the round's.
func (r *Round) Server(id types.ProcID) bool {
	return id.IsServer() && id.Index() < r.sh.S
}

// Ack counts from's ack of the round in flight. It reports from's index
// and whether this was the first ack counted for it; a sender that is
// not one of the S servers is never counted.
func (r *Round) Ack(from types.ProcID) (int, bool) {
	i := from.Index()
	if i < 0 || i >= len(r.seen) || r.seen[i] || !from.IsServer() {
		return i, false
	}
	r.seen[i] = true
	r.acks++
	return i, true
}

// Acked reports whether server i's ack of the round in flight counted.
func (r *Round) Acked(i int) bool { return r.seen[i] }

// Acks returns the number of servers whose ack of the round counted.
func (r *Round) Acks() int { return r.acks }

// Rounds returns the rounds opened since Begin: once the operation
// completes, the round-trips it ran.
func (r *Round) Rounds() int { return r.n }

// Decided reports whether the round may end: all S acks, or S − t once
// the timer gave its verdict (at once if the round is untimed); or the
// operation failed.
func (r *Round) Decided() bool {
	return r.err != nil || r.acks >= r.sh.S || (r.acks >= r.sh.Need && (r.expired || !r.timed))
}

// Short returns the fewest further acks after which the round could be
// decided without the timer: all S in a timed round still waiting for
// its verdict, a quorum otherwise, and 0 once it is decided.
func (r *Round) Short() int {
	switch {
	case r.Decided():
		return 0
	case r.timed && !r.expired:
		return r.sh.S - r.acks
	}
	return r.sh.Need - r.acks
}

// Deadline returns when Lapse next has something to judge: the end of
// the round's timer or grace cycle, or the operation's deadline.
func (r *Round) Deadline() time.Time {
	if !r.timer.IsZero() && r.timer.Before(r.op) {
		return r.timer
	}
	return r.op
}

// Err returns the operation's failure: ErrOpTimeout naming the phase.
func (r *Round) Err() error { return r.err }

// Expire is the timer firing at now: Lapse, and the round's resend
// appended to out when the grace ran out.
func (r *Round) Expire(now time.Time, out *[]transport.Outgoing) {
	if r.Lapse(now) {
		r.sh.Retransmits.Inc()
		r.emit(out)
	}
}

// Lapse applies the timer at now, judged against every ack counted so
// far. Past the operation deadline the operation fails with
// ErrOpTimeout. At a quorum the round's timer gives its verdict and
// disarms; below one the first expiry starts the retransmitGrace cycle,
// and Lapse reports true each time a grace runs out below a quorum — the
// round must be re-sent (Expire) or given up. Before the deadline it
// does nothing.
func (r *Round) Lapse(now time.Time) (graceOver bool) {
	switch {
	case r.err != nil:
	case !now.Before(r.op):
		r.err = fmt.Errorf("%s %s (round %d): %w", r.sh.Name, r.phase, r.n, ErrOpTimeout)
	case r.timer.IsZero() || now.Before(r.timer):
	case r.acks >= r.sh.Need:
		r.expired, r.timer = true, time.Time{}
	default:
		graceOver = r.inGrace
		if !graceOver {
			r.sh.Starved.Inc()
		}
		r.expired, r.inGrace, r.timer = true, true, now.Add(retransmitGrace)
	}
	return graceOver
}
