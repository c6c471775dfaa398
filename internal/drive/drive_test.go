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
	type start func() (bool, error)
	for name, build := range map[string]func(ep transport.Endpoint) (drive.Op, start){
		"regular.Writer": func(ep transport.Endpoint) (drive.Op, start) {
			w := regular.NewWriter(regular.Config{T: 1}, ep)
			return w, func() (bool, error) { return w.Start("v") }
		},
		"regular.Reader": func(ep transport.Endpoint) (drive.Op, start) {
			r := regular.NewReader(regular.Config{T: 1, NumReaders: 1}, types.ReaderID(0), ep)
			return r, r.Start
		},
		"twophase.Writer": func(ep transport.Endpoint) (drive.Op, start) {
			w := twophase.NewWriter(twophase.Config{T: 1}, ep)
			return w, func() (bool, error) { return w.Start("v") }
		},
		"twophase.Reader": func(ep transport.Endpoint) (drive.Op, start) {
			r := twophase.NewReader(twophase.Config{T: 1, NumReaders: 1}, types.ReaderID(0), ep)
			return r, r.Start
		},
		"abd.Writer": func(ep transport.Endpoint) (drive.Op, start) {
			w := abd.NewWriter(abd.Config{T: 1}, ep)
			return w, func() (bool, error) { return w.Start("v") }
		},
		"abd.Reader": func(ep transport.Endpoint) (drive.Op, start) {
			r := abd.NewReader(abd.Config{T: 1, NumReaders: 1}, ep)
			return r, r.Start
		},
	} {
		t.Run(name, func(t *testing.T) {
			ep := &recorder{}
			op, start := build(ep)
			if done, err := start(); done || err != nil {
				t.Fatalf("Start = %v, %v; want a round in flight", done, err)
			}
			round := ep.take()
			if len(round) != 3 {
				t.Fatalf("first round %+v, want one message to each of 3 servers", round)
			}
			op.Deliver(wire.Envelope{From: round[0].To, Msg: ackOf(t, round[0].Msg)})
			opDeadline := time.Now().Add(drive.DefaultOpTimeout)
			for i := 0; i < 2; i++ {
				dl := op.Deadline()
				if !dl.Before(opDeadline) {
					t.Fatalf("expiry %d: the next deadline is the operation's", i+1)
				}
				op.Expire(dl)
			}
			if got := ep.take(); !reflect.DeepEqual(got, round) {
				t.Fatalf("after the grace sent %+v, want the round %+v again", got, round)
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
