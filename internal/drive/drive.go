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
	Expire(now time.Time)
	Advance() (done bool, err error)
}

// Task is an Op that a Run starts: Start once its replies are routed to
// the run, and End once the operation is over — done, with err nil, or
// failed.
type Task interface {
	Op
	Start() (done bool, err error)
	End(err error)
}

// Source is where a Task's replies come from: a demultiplexed
// subscription, which sends them to slot i of in from Route(in, i) on
// and drops them after Route(nil, 0).
type Source interface {
	Route(in *Inbox, slot int)
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
// Op of a Private's Wait. It is for one goroutine at a time, and keeps
// its timer and slots from one call to the next.
type Driver struct {
	in    *Inbox               // a Run's replies ...
	dls   <-chan Delivery      // ... as its channel
	cork  Corker               // ... and its sends' cork
	recv  <-chan wire.Envelope // a Wait's replies, all for slot 0
	timer *time.Timer
	slots []slot

	live      int // slots not over
	undecided int // live slots whose round is not decided
}

type slot struct {
	op      Op
	task    Task   // nil for a Wait's op
	src     Source // nil for a Wait's op
	over    bool   // completed or failed, and unrouted
	decided bool   // the round in flight is decided
	err     error
}

// New returns a driver for runs over in, whose sends c corks.
func New(in *Inbox, c Corker) *Driver { return &Driver{in: in, dls: in.c, cork: c} }

// Add queues t, whose replies src routes, for the next Run. A Run
// routes and starts its tasks in the order they were added.
func (d *Driver) Add(t Task, src Source) {
	d.slots = append(d.slots, slot{op: t, task: t, src: src})
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
		done, err := s.task.Start()
		d.settle(s, done, err)
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

// Wait drives op, whose Start has just returned done and err, to its end
// over ep's replies, and returns its error: transport.ErrClosed if ep
// closes first.
func (p *Private) Wait(ep transport.Endpoint, op Op, done bool, err error) error {
	if done || err != nil {
		return err
	}
	if p.d == nil {
		p.d = &Driver{recv: ep.Recv()}
	}
	d := p.d
	d.slots = append(d.slots[:0], slot{op: op})
	d.live, d.undecided = 1, 0
	d.settle(&d.slots[0], false, nil)
	d.loop()
	return d.slots[0].err
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
				done, err := s.op.Advance()
				d.settle(s, done, err)
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
// every reply that arrived in time. It fails only when the reply source
// closed.
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
		now := time.Now()
		for i := range d.slots {
			if s := &d.slots[i]; !s.over && !s.decided && !now.Before(s.op.Deadline()) {
				s.op.Expire(now)
				d.check(s)
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
		case <-d.timer.C:
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
	if d.timer == nil {
		d.timer = time.NewTimer(time.Until(next))
	} else {
		d.timer.Reset(time.Until(next))
	}
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
