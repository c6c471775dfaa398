// Package drive is the one wait loop behind every client — core's, the
// variants' and kv's — and the one round they all build on. Figs. 1–2
// (and 6–8) write a client as event handlers — on receive, fold the
// ack; on timer expiry, decide — and an Op is exactly those handlers:
// replies go in by Deliver, the round timer's verdicts by Expire at the
// Deadline, and once the round is Decided, Advance completes the
// operation or emits its next round.
//
// A Round is what every client's rounds have in common: send to the
// servers, count S − t validated acks and, in a timed round, wait for
// the timer's verdict too; re-send a round the timer found below a
// quorum once a grace has passed (the timer is for loss recovery in
// every round, and for a decision only in a timed one); and fail the
// operation at its deadline with ErrOpTimeout. A client keeps only its
// phases, its predicates and what it takes from an ack's payload.
//
// Ops and Rounds neither read the clock nor send, as servers do not
// (node.Automaton): a call that may start a round or judge a timer
// takes the time it runs at, and appends what it emits to the caller's
// outgoing buffer. A Driver is the one place that reads the time — its
// Clock, the wall clock unless a test or a simulation supplies another —
// and the one place that sends: each op's messages to its endpoint.
//
// A Driver feeds Ops from one goroutine with one timer. Its replies come
// from one of two places: a client's private endpoint, for one operation
// at a time (Private), or an Inbox that a demultiplexer routes many
// keys' replies into, slot-tagged, for a lock-step run of Tasks (Run).
package drive

import (
	"time"

	"luckystore/internal/transport"
	"luckystore/internal/wire"
)

// Op is the non-blocking half of a client operation in flight.
type Op interface {
	Deliver(env wire.Envelope)
	Decided() bool
	Deadline() time.Time
	Expire(now time.Time, out *[]transport.Outgoing)
	Advance(now time.Time, out *[]transport.Outgoing) (done bool, err error)
}

// Task is an Op that a Run starts: Start once its replies are routed to
// the run, and End once the operation is over — done, with err nil, or
// failed.
type Task interface {
	Op
	Start(now time.Time, out *[]transport.Outgoing) (done bool, err error)
	End(err error)
}

// Source is a Task's endpoint, a demultiplexed subscription: it carries
// the Task's messages out, routes its replies to slot i of in from
// Route(in, i) on, and drops them after Route(nil, 0).
type Source interface {
	transport.Endpoint
	Route(in *Inbox, slot int)
}

// Clock is a Driver's time: the now its operations run at, and one
// timer, which Arm sets to fire at t — replacing any earlier setting —
// on the channel it returns.
type Clock interface {
	Now() time.Time
	Arm(t time.Time) <-chan time.Time
}

// wallClock is the wall clock, with one real timer.
type wallClock struct{ timer *time.Timer }

func (c *wallClock) Now() time.Time { return time.Now() }

func (c *wallClock) Arm(t time.Time) <-chan time.Time {
	if c.timer == nil {
		c.timer = time.NewTimer(time.Until(t))
	} else {
		c.timer.Reset(time.Until(t))
	}
	return c.timer.C
}

// Corker holds back sends until the matching Uncork, so that a round of
// many operations leaves as one frame per server (keyed.Demux has it).
type Corker interface {
	Cork()
	Uncork()
}

// inboxBuffer is an Inbox's capacity: one round of a 32-key batch over
// S = 3 is 96 replies, and the sender waits on a full inbox.
const inboxBuffer = 128

// Inbox is the reply queue of a driver that runs operations on many keys:
// each key's Source is routed to one slot of it while the driver holds an
// operation on the key. Put waits on a full inbox rather than queue
// without bound, so a driver keeps receiving while any of its routes is
// set, and an idle inbox holds at most the one delivery a sender had in
// hand when the last route was cleared.
type Inbox struct {
	c chan Delivery
}

// Delivery is one reply routed into an Inbox: the slot and the Source it
// was routed for, and the reply itself. A driver that reuses an inbox
// checks the Source — a slot's previous key may still have a reply under
// way.
type Delivery struct {
	Slot int
	Src  Source
	Env  wire.Envelope
}

// NewInbox makes an empty inbox.
func NewInbox() *Inbox { return &Inbox{c: make(chan Delivery, inboxBuffer)} }

// Put queues dl, waiting while the inbox is full.
func (in *Inbox) Put(dl Delivery) { in.c <- dl }

// Close wakes a driver waiting on the inbox with transport.ErrClosed.
// Nothing may Put afterwards.
func (in *Inbox) Close() { close(in.c) }

// Driver runs operations to completion: the Tasks of a Run, or the one
// Op of a Private's Wait. It starts them, reads its clock for every call
// it makes on them and sends what they emit. It is for one goroutine at
// a time, and keeps its clock, buffer and slots from one call to the
// next.
type Driver struct {
	in    *Inbox               // a Run's replies ...
	dls   <-chan Delivery      // ... as its channel
	cork  Corker               // ... and its sends' cork
	recv  <-chan wire.Envelope // a Wait's replies, all for slot 0
	clock Clock
	fire  <-chan time.Time     // the clock's timer, as last armed
	out   []transport.Outgoing // what the op in hand emitted, until sent
	slots []slot

	live      int // slots not over
	undecided int // live slots whose round is not decided
}

type slot struct {
	op      Op
	task    Task               // nil for a Wait's op
	src     Source             // nil for a Wait's op
	ep      transport.Endpoint // where its op's messages go
	over    bool               // completed or failed, and unrouted
	decided bool               // the round in flight is decided
	err     error
}

// New returns a driver for runs over in, whose sends c corks, on clock
// (nil: the wall clock).
func New(in *Inbox, c Corker, clock Clock) *Driver {
	if clock == nil {
		clock = new(wallClock)
	}
	return &Driver{in: in, dls: in.c, cork: c, clock: clock}
}

// Add queues t, whose messages src sends and whose replies it routes,
// for the next Run. A Run routes and starts its tasks in the order they
// were added.
func (d *Driver) Add(t Task, src Source) {
	d.slots = append(d.slots, slot{op: t, task: t, src: src, ep: src})
}

// Run drives the added tasks to completion in lock-step, and forgets
// them. Every task emits a round under the cork, the uncork ships the
// round as one frame per server, and the driver then delivers replies
// and expires deadlines until every task's round is decided, and
// advances them all — complete, or emit the next round — under the next
// cork. Tasks that miss the fast path therefore run their extra rounds
// together too, and N tasks wait on one inbox and one timer, not N. A
// lone task does not cork: its sends write through, as a Send on an idle
// coalescer does, where a corked round with one destination down would
// all go out on the coalescer's transient goroutine.
//
// A task is routed to its slot before it starts, and unrouted and Ended
// the moment it is over.
func (d *Driver) Run() {
	d.live, d.undecided = len(d.slots), 0
	d.corkRound()
	for i := range d.slots {
		s := &d.slots[i]
		s.src.Route(d.in, i)
		done, err := s.task.Start(d.clock.Now(), &d.out)
		d.settle(s, done, d.send(s, err, false))
	}
	d.loop()
	clear(d.slots)
	d.slots = d.slots[:0]
}

// Private drives one client's operations, one at a time, over the
// client's private endpoint — the blocking form of every client's Write
// and Read. The zero Private makes its driver on first use and keeps it.
type Private struct {
	d *Driver
}

// Wait starts op by start, sends over ep and drives it to its end over
// ep's replies, and returns its error: transport.ErrClosed if ep closes
// first.
func (p *Private) Wait(ep transport.Endpoint, op Op, start func(now time.Time, out *[]transport.Outgoing) (bool, error)) error {
	if p.d == nil {
		p.d = &Driver{recv: ep.Recv(), clock: new(wallClock)}
	}
	d := p.d
	d.slots = append(d.slots[:0], slot{op: op, ep: ep})
	d.live, d.undecided = 1, 0
	s := &d.slots[0]
	done, err := start(d.clock.Now(), &d.out)
	d.settle(s, done, d.send(s, err, false))
	d.loop()
	return s.err
}

// loop runs the live slots' rounds until none is live.
func (d *Driver) loop() {
	for {
		d.uncorkRound()
		if d.live == 0 {
			break
		}
		if err := d.await(); err != nil {
			for i := range d.slots {
				if s := &d.slots[i]; !s.over {
					d.settle(s, false, err)
				}
			}
			break
		}
		d.corkRound()
		for i := range d.slots {
			if s := &d.slots[i]; !s.over {
				done, err := s.op.Advance(d.clock.Now(), &d.out)
				d.settle(s, done, d.send(s, err, false))
			}
		}
	}
	_ = d.drain() // replies that came after their op was decided
}

func (d *Driver) corkRound() {
	if len(d.slots) > 1 {
		d.cork.Cork()
	}
}

func (d *Driver) uncorkRound() {
	if len(d.slots) > 1 {
		d.cork.Uncork()
	}
}

// send sends what s's op emitted to its endpoint, and returns the op's
// err or, failing that, the send's: a round that reaches no server fails
// the operation. A resend is pushed past any send-side buffering
// (transport.Flusher): held behind another driver's cork, it would wait
// for that driver's pass.
func (d *Driver) send(s *slot, err error, resend bool) error {
	if len(d.out) == 0 {
		return err
	}
	serr := transport.SendAll(s.ep, d.out)
	d.out = d.out[:0]
	if resend && serr == nil {
		if f, ok := s.ep.(transport.Flusher); ok {
			serr = f.Flush()
		}
	}
	if err != nil {
		return err
	}
	return serr
}

// settle takes a slot's Start/Advance verdict: an op that is over is
// unrouted and ended with its error; one that goes on has a new round,
// counted undecided unless it already is decided.
func (d *Driver) settle(s *slot, done bool, err error) {
	if !done && err == nil {
		if s.decided = s.op.Decided(); !s.decided {
			d.undecided++
		}
		return
	}
	if s.src != nil {
		s.src.Route(nil, 0)
	}
	s.over, s.err = true, err
	d.live--
	if s.task != nil {
		s.task.End(err)
	}
}

// await delivers replies and expires deadlines until every live slot's
// round is decided, then delivers what is already queued, so that every
// verdict — the timer's, and the fast-path check Advance makes — sees
// every reply that arrived in time. An op whose resend reaches no server
// fails there. It fails only when the reply source closed.
func (d *Driver) await() error {
	for d.undecided > 0 {
		d.arm()
		fired := false
		for !fired && d.undecided > 0 {
			var err error
			if fired, err = d.receive(true); err != nil {
				return err
			}
		}
		if !fired {
			break
		}
		if err := d.drain(); err != nil {
			return err
		}
		now := d.clock.Now()
		for i := range d.slots {
			if s := &d.slots[i]; !s.over && !s.decided && !now.Before(s.op.Deadline()) {
				s.op.Expire(now, &d.out)
				if err := d.send(s, nil, true); err != nil {
					d.undecided--
					d.settle(s, false, err)
				} else {
					d.check(s)
				}
			}
		}
	}
	return d.drain()
}

// drain delivers the replies already queued.
func (d *Driver) drain() error {
	for {
		if more, err := d.receive(false); !more || err != nil {
			return err
		}
	}
}

// receive is the one place a client waits for its replies. It delivers one
// reply; with wait it blocks for one or for the timer, and reports
// whether the timer fired, and without it reports whether there was one
// to deliver.
func (d *Driver) receive(wait bool) (bool, error) {
	var (
		dl  Delivery
		env wire.Envelope
		ok  bool
	)
	if wait {
		select {
		case dl, ok = <-d.dls:
		case env, ok = <-d.recv:
			dl = Delivery{Env: env}
		case <-d.fire:
			return true, nil
		}
	} else {
		select {
		case dl, ok = <-d.dls:
		case env, ok = <-d.recv:
			dl = Delivery{Env: env}
		default:
			return false, nil
		}
	}
	if !ok {
		return false, transport.ErrClosed
	}
	d.deliver(dl)
	return !wait, nil
}

// arm points the timer at the earliest deadline of an undecided slot.
func (d *Driver) arm() {
	var next time.Time
	for i := range d.slots {
		if s := &d.slots[i]; !s.over && !s.decided {
			if dl := s.op.Deadline(); next.IsZero() || dl.Before(next) {
				next = dl
			}
		}
	}
	d.fire = d.clock.Arm(next)
}

// deliver hands a reply to the op its slot holds, unless the slot has
// moved on to another source or the op is over: a reply routed before
// the route was cleared, or to the previous user of this inbox.
func (d *Driver) deliver(dl Delivery) {
	if dl.Slot >= len(d.slots) {
		return
	}
	if s := &d.slots[dl.Slot]; s.src == dl.Src && !s.over {
		s.op.Deliver(dl.Env)
		d.check(s)
	}
}

// check counts s decided once its round is.
func (d *Driver) check(s *slot) {
	if !s.decided && s.op.Decided() {
		s.decided = true
		d.undecided--
	}
}
