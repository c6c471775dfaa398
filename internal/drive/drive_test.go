package drive_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"luckystore/internal/abd"
	"luckystore/internal/core"
	"luckystore/internal/drive"
	"luckystore/internal/regular"
	"luckystore/internal/simnet"
	"luckystore/internal/transport"
	"luckystore/internal/twophase"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// cluster is what the test needs of every client kind's deployment.
type cluster struct {
	sim   *simnet.Network
	s     int
	write func() error
	read  func() error
	close func()
}

// TestPrivateOpEndsWithErrClosedOnClose parks a lone WRITE and a lone
// READ of each client kind on its private endpoint — every server held,
// a round timer short and the operation deadline far — and closes the
// cluster: both must return transport.ErrClosed within 500 ms, whatever
// the driver's timer was doing.
func TestPrivateOpEndsWithErrClosedOnClose(t *testing.T) {
	const (
		round = 10 * time.Millisecond
		op    = time.Minute
		bound = 500 * time.Millisecond
	)
	for name, build := range map[string]func(t *testing.T) cluster{
		"core": func(t *testing.T) cluster {
			c, err := core.NewCluster(core.Config{T: 1, NumReaders: 1, RoundTimeout: round, OpTimeout: op})
			if err != nil {
				t.Fatal(err)
			}
			return cluster{c.Sim(), c.Config().S(), func() error { return c.Writer().Write("v") },
				func() error { _, err := c.Reader(0).Read(); return err }, c.Close}
		},
		"regular": func(t *testing.T) cluster {
			c, err := regular.NewCluster(regular.Config{T: 1, NumReaders: 1, RoundTimeout: round, OpTimeout: op})
			if err != nil {
				t.Fatal(err)
			}
			return cluster{c.Sim(), c.Config().S(), func() error { return c.Writer().Write("v") },
				func() error { _, err := c.Reader(0).Read(); return err }, c.Close}
		},
		"twophase": func(t *testing.T) cluster {
			c, err := twophase.NewCluster(twophase.Config{T: 1, NumReaders: 1, RoundTimeout: round, OpTimeout: op})
			if err != nil {
				t.Fatal(err)
			}
			return cluster{c.Sim(), c.Config().S(), func() error { return c.Writer().Write("v") },
				func() error { _, err := c.Reader(0).Read(); return err }, c.Close}
		},
		"abd": func(t *testing.T) cluster {
			cfg := abd.Config{T: 1, NumReaders: 1, OpTimeout: op}
			c, err := abd.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return cluster{c.Sim(), cfg.S(), func() error { return c.Writer().Write("v") },
				func() error { _, err := c.Reader(0).Read(); return err }, c.Close}
		},
	} {
		t.Run(name, func(t *testing.T) {
			c := build(t)
			for i := 0; i < c.s; i++ {
				c.sim.HoldAllTo(types.ServerID(i))
			}
			errs := make(chan error, 2)
			go func() { errs <- c.write() }()
			go func() { errs <- c.read() }()
			time.Sleep(8 * round) // both parked; their timers have run a grace cycle and resent
			t0 := time.Now()
			c.close()
			for i := 0; i < 2; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, transport.ErrClosed) {
						t.Errorf("op ended with %v, want ErrClosed", err)
					}
				case <-time.After(bound):
					t.Fatalf("op still parked %v after Close", bound)
				}
			}
			if d := time.Since(t0); d > bound {
				t.Errorf("ops ended %v after Close, want within %v", d, bound)
			}
		})
	}
}

// TestVariantsResendALostRound gives each variant client's first round
// one ack of the two it needs and lets its timer run out twice: the
// first expiry starts the grace, the second re-sends the round — the same
// message to the same servers — well before the operation deadline,
// instead of waiting for it.
func TestVariantsResendALostRound(t *testing.T) {
	type start func(time.Time, *[]transport.Outgoing) (bool, error)
	for name, build := range map[string]func() (drive.Op, start){
		"regular.Writer": func() (drive.Op, start) {
			w := regular.NewWriter(regular.Config{T: 1}, nil)
			return w, func(now time.Time, out *[]transport.Outgoing) (bool, error) { return w.Start(now, "v", out) }
		},
		"regular.Reader": func() (drive.Op, start) {
			r := regular.NewReader(regular.Config{T: 1, NumReaders: 1}, types.ReaderID(0), nil)
			return r, r.Start
		},
		"twophase.Writer": func() (drive.Op, start) {
			w := twophase.NewWriter(twophase.Config{T: 1}, nil)
			return w, func(now time.Time, out *[]transport.Outgoing) (bool, error) { return w.Start(now, "v", out) }
		},
		"twophase.Reader": func() (drive.Op, start) {
			r := twophase.NewReader(twophase.Config{T: 1, NumReaders: 1}, types.ReaderID(0), nil)
			return r, r.Start
		},
		"abd.Writer": func() (drive.Op, start) {
			w := abd.NewWriter(abd.Config{T: 1}, nil)
			return w, func(now time.Time, out *[]transport.Outgoing) (bool, error) { return w.Start(now, "v", out) }
		},
		"abd.Reader": func() (drive.Op, start) {
			r := abd.NewReader(abd.Config{T: 1, NumReaders: 1}, nil)
			return r, r.Start
		},
	} {
		t.Run(name, func(t *testing.T) {
			op, start := build()
			var round []transport.Outgoing
			if done, err := start(t0, &round); done || err != nil {
				t.Fatalf("Start = %v, %v; want a round in flight", done, err)
			}
			if len(round) != 3 {
				t.Fatalf("first round %+v, want one message to each of 3 servers", round)
			}
			op.Deliver(wire.Envelope{From: round[0].To, Msg: ackOf(t, round[0].Msg)})
			var out []transport.Outgoing
			for i := 0; i < 2; i++ {
				dl := op.Deadline()
				if !dl.Before(t0.Add(drive.DefaultOpTimeout)) {
					t.Fatalf("expiry %d: the next deadline is the operation's", i+1)
				}
				op.Expire(dl, &out)
			}
			if !reflect.DeepEqual(out, round) {
				t.Fatalf("after the grace emitted %+v, want the round %+v again", out, round)
			}
			if op.Decided() {
				t.Fatal("one ack of two: the round is decided")
			}
		})
	}
}

// ackOf is a server's ack of round message m.
func ackOf(t *testing.T, m wire.Message) wire.Message {
	bot := types.Bottom()
	switch m := m.(type) {
	case wire.PW:
		return wire.PWAck{TS: m.TS}
	case wire.Read:
		return wire.ReadAck{TSR: m.TSR, Round: m.Round, PW: bot, W: bot, VW: bot, Frozen: types.InitialFrozen()}
	case wire.ABDWrite:
		return wire.ABDWriteAck{Seq: m.Seq}
	case wire.ABDRead:
		return wire.ABDReadAck{Seq: m.Seq, C: bot}
	}
	t.Fatalf("no ack for %T", m)
	return nil
}

// errDown is the send error of a server that is gone.
var errDown = errors.New("server down")

// goneAfter is an endpoint whose first n sends succeed and whose later
// sends all fail with errDown; no reply ever arrives.
type goneAfter struct{ n int }

func (g *goneAfter) ID() types.ProcID           { return types.WriterID() }
func (g *goneAfter) Recv() <-chan wire.Envelope { return nil }
func (g *goneAfter) Close() error               { return nil }
func (g *goneAfter) Send(types.ProcID, wire.Message) error {
	if g.n == 0 {
		return errDown
	}
	g.n--
	return nil
}

// TestResendFailingEverywhereFailsTheOp sends a WRITE's pre-write to all
// three servers, which then all go away: the resend after the grace
// reaches none of them, and the WRITE fails with that send error rather
// than waiting for its operation deadline.
func TestResendFailingEverywhereFailsTheOp(t *testing.T) {
	cfg := core.Config{T: 1, RoundTimeout: time.Millisecond, OpTimeout: time.Minute}
	w := core.NewWriter(cfg, types.WriterID(), &goneAfter{n: cfg.S()})
	t0 := time.Now()
	if err := w.Write("v"); !errors.Is(err, errDown) {
		t.Fatalf("Write = %v, want the resend's %v", err, errDown)
	}
	if d := time.Since(t0); d > 10*time.Second {
		t.Errorf("the failed resend ended the WRITE after %v, want about one grace", d)
	}
}

// testClock is a clock that moves only when the driver waits on it: Arm
// jumps now to the armed time and fires at once. It suits ops that get
// no replies while the driver waits.
type testClock struct {
	now   time.Time
	armed []time.Time
	fire  chan time.Time
}

func newTestClock() *testClock { return &testClock{now: t0, fire: make(chan time.Time, 1)} }

func (c *testClock) Now() time.Time { return c.now }

func (c *testClock) Arm(t time.Time) <-chan time.Time {
	select {
	case <-c.fire: // a firing nobody waited for
	default:
	}
	c.armed = append(c.armed, t)
	c.now = t
	c.fire <- t
	return c.fire
}

// sent is one message a source sent, and when.
type sent struct {
	at time.Time
	to types.ProcID
}

// source is a task's endpoint with no network behind it: it keeps what
// it is sent, stamped with the clock's now, and counts flushes.
type source struct {
	clock   *testClock
	sent    []sent
	flushes int
}

func (s *source) ID() types.ProcID           { return types.WriterID() }
func (s *source) Recv() <-chan wire.Envelope { return nil }
func (s *source) Close() error               { return nil }
func (s *source) Flush() error               { s.flushes++; return nil }
func (s *source) Route(*drive.Inbox, int)    {}
func (s *source) Send(to types.ProcID, _ wire.Message) error {
	s.sent = append(s.sent, sent{at: s.clock.now, to: to})
	return nil
}

// noCork is a Corker with nothing to hold back.
type noCork struct{}

func (noCork) Cork()   {}
func (noCork) Uncork() {}

// timerTask is a Task with no messages whose round only its timer
// decides, after from its Start; it records when it expired.
type timerTask struct {
	after   time.Duration
	dl      time.Time
	expired []time.Time
}

func (k *timerTask) Start(now time.Time, _ *[]transport.Outgoing) (bool, error) {
	k.dl = now.Add(k.after)
	return false, nil
}
func (k *timerTask) Deliver(wire.Envelope) {}
func (k *timerTask) Decided() bool         { return len(k.expired) > 0 }
func (k *timerTask) Short() int            { return 1 }
func (k *timerTask) Deadline() time.Time   { return k.dl }
func (k *timerTask) Expire(now time.Time, _ *[]transport.Outgoing) {
	k.expired = append(k.expired, now)
}
func (k *timerTask) Advance(time.Time, *[]transport.Outgoing) (bool, error) { return true, nil }
func (k *timerTask) End(error)                                              {}

// TestDriverExpiresAtTheEarliestDeadline runs two tasks whose deadlines
// are 30 ms and 10 ms after their start: the driver arms at the earlier,
// expires only that task, exactly at its deadline, then does the same
// for the other.
func TestDriverExpiresAtTheEarliestDeadline(t *testing.T) {
	clock := newTestClock()
	d := drive.New(drive.NewInbox(), noCork{}, clock)
	late, early := &timerTask{after: 30 * time.Millisecond}, &timerTask{after: 10 * time.Millisecond}
	d.Add(late, &source{clock: clock})
	d.Add(early, &source{clock: clock})
	d.Run()
	want := []time.Time{t0.Add(early.after), t0.Add(late.after)}
	if !reflect.DeepEqual(clock.armed, want) {
		t.Errorf("armed at %v, want %v", clock.armed, want)
	}
	if !reflect.DeepEqual(early.expired, want[:1]) || !reflect.DeepEqual(late.expired, want[1:]) {
		t.Errorf("expired at %v and %v, want %v and %v", early.expired, late.expired, want[:1], want[1:])
	}
}

// roundTask is a Task of one round, which its acks decide — and, when it
// is timed, the timer's verdict.
type roundTask struct {
	drive.Round
	timed bool
	err   error
}

func (k *roundTask) Start(now time.Time, out *[]transport.Outgoing) (bool, error) {
	k.Begin(now)
	k.Open(now, "PW round", k.timed, nil, wire.Read{TSR: 1, Round: 1}, out)
	return false, nil
}
func (k *roundTask) Deliver(env wire.Envelope) { k.Ack(env.From) }
func (k *roundTask) Advance(time.Time, *[]transport.Outgoing) (bool, error) {
	return k.Err() == nil, k.Err()
}
func (k *roundTask) End(err error) { k.err = err }

// TestDriverResendsAStarvedRoundOncePerGrace runs a round no server
// answers to its op deadline: the driver sends it at the start, then
// once per grace from the round timer on — each resend flushed — and
// the op fails at its deadline with ErrOpTimeout.
func TestDriverResendsAStarvedRoundOncePerGrace(t *testing.T) {
	clock := newTestClock()
	src := &source{clock: clock}
	k := &roundTask{Round: drive.NewRound(shape3)}
	d := drive.New(drive.NewInbox(), noCork{}, clock)
	d.Add(k, src)
	d.Run()
	if !errors.Is(k.err, drive.ErrOpTimeout) {
		t.Fatalf("ended with %v, want ErrOpTimeout", k.err)
	}
	if n := len(clock.armed); n < 3 {
		t.Fatalf("armed %d times, want the timer, a grace and more", n)
	}
	timer, grace := clock.armed[0], clock.armed[1].Sub(clock.armed[0])
	if want := t0.Add(shape3.RoundTimeout); !timer.Equal(want) {
		t.Fatalf("first armed at %v, want the round timer %v", timer, want)
	}
	round := func(at time.Time) []sent {
		return []sent{{at, "s0"}, {at, "s1"}, {at, "s2"}}
	}
	want := round(t0)
	for at := timer.Add(grace); at.Before(t0.Add(shape3.OpTimeout)); at = at.Add(grace) {
		want = append(want, round(at)...)
	}
	if !reflect.DeepEqual(src.sent, want) {
		t.Fatalf("sent %+v,\nwant %+v", src.sent, want)
	}
	if last := clock.armed[len(clock.armed)-1]; !last.Equal(t0.Add(shape3.OpTimeout)) {
		t.Errorf("last armed at %v, want the op deadline", last)
	}
	if resends := len(want)/shape3.S - 1; src.flushes != resends {
		t.Errorf("%d flushes, want one per resend, %d", src.flushes, resends)
	}
}
