package keyed

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"luckystore/internal/drive"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// frameEndpoint is an endpoint with the transport.FrameRouter capability
// and no traffic of its own: a test hands frames to route as a
// connection's read loop would.
type frameEndpoint struct {
	route func(types.ProcID, wire.Message)
}

var _ transport.FrameRouter = (*frameEndpoint)(nil)

func (e *frameEndpoint) ID() types.ProcID                      { return types.WriterID() }
func (e *frameEndpoint) Send(types.ProcID, wire.Message) error { return nil }
func (e *frameEndpoint) Recv() <-chan wire.Envelope            { return nil }
func (e *frameEndpoint) Close() error                          { return nil }
func (e *frameEndpoint) RouteFrames(route func(types.ProcID, wire.Message)) error {
	e.route = route
	return nil
}

// newFrameDemux returns a demux over a frameEndpoint, which it must have
// taken the frame routing of.
func newFrameDemux(t *testing.T) (*frameEndpoint, *Demux) {
	t.Helper()
	ep := &frameEndpoint{}
	d := NewDemux(ep)
	t.Cleanup(func() { _ = d.Close() })
	if ep.route == nil {
		t.Fatal("the demux did not take the endpoint's frame routing")
	}
	return ep, d
}

// reply is server 0's reply number seq for key.
func reply(key string, seq int) wire.Message {
	return wire.Keyed{Key: key, Inner: wire.ABDReadAck{Seq: int64(seq), C: types.Bottom()}}
}

// logTask is a task that logs, in a log it shares with other tasks, each
// reply delivered to it as key/seq. It starts with start, and is decided
// on its first reply.
type logTask struct {
	key   string
	log   *[]string
	start func()
	got   int
}

func (k *logTask) Start(time.Time, *[]transport.Outgoing) (bool, error) {
	if k.start != nil {
		k.start()
	}
	return false, nil
}
func (k *logTask) Deliver(env wire.Envelope) {
	k.got++
	*k.log = append(*k.log, fmt.Sprintf("%s/%d", k.key, env.Msg.(wire.ABDReadAck).Seq))
}
func (k *logTask) Decided() bool                                          { return k.got > 0 }
func (k *logTask) Short() int                                             { return 1 }
func (k *logTask) Deadline() time.Time                                    { return time.Now().Add(time.Hour) }
func (k *logTask) Expire(time.Time, *[]transport.Outgoing)                {}
func (k *logTask) Advance(time.Time, *[]transport.Outgoing) (bool, error) { return true, nil }
func (k *logTask) End(error)                                              {}

// TestDemuxRoutesABatchFrameAsOneRun hands the demux a 32-reply batch
// frame for the 32 keys of one driver: it reaches the driver's inbox as
// one entry, which the driver delivers in frame order.
func TestDemuxRoutesABatchFrameAsOneRun(t *testing.T) {
	ep, d := newFrameDemux(t)
	in, dr := inboxDriver(t, d)
	const width = 32
	var (
		frame   wire.Batch
		log     []string
		want    []string
		entries = -1
	)
	for i := 0; i < width; i++ {
		key := fmt.Sprintf("k%02d", i)
		frame.Msgs = append(frame.Msgs, reply(key, i))
		want = append(want, fmt.Sprintf("%s/%d", key, i))
		k := &logTask{key: key, log: &log}
		if i == width-1 { // every key is routed by the time the last starts
			k.start = func() {
				ep.route(types.ServerID(0), frame)
				entries = in.Len()
			}
		}
		dr.Add(k, subscribe(t, d, key))
	}
	dr.Run()
	if entries != 1 {
		t.Errorf("a %d-reply frame made %d inbox entries, want 1", width, entries)
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("delivered %v,\nwant %v", log, want)
	}
}

// TestDemuxSplitsAFrameByInbox hands the demux one frame whose replies
// are for the keys of two drivers, with a reply for a key routed nowhere
// between them: each driver's inbox gets one run, and each driver
// delivers its replies in frame order.
func TestDemuxSplitsAFrameByInbox(t *testing.T) {
	ep, d := newFrameDemux(t)
	inA, a := inboxDriver(t, d)
	inB, b := inboxDriver(t, d)
	var (
		frame      wire.Batch
		logA, logB []string
		wantA      []string
		wantB      []string
	)
	subscribe(t, d, "idle") // subscribed, routed nowhere: dropped
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("a%d", i)
		sub := subscribe(t, d, key)
		sub.Route(inA, i)
		a.Add(&logTask{key: key, log: &logA}, sub)
		frame.Msgs = append(frame.Msgs, reply(key, i))
		wantA = append(wantA, fmt.Sprintf("%s/%d", key, i))
	}
	frame.Msgs = append(frame.Msgs, reply("idle", 0))
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("b%d", i)
		sub := subscribe(t, d, key)
		sub.Route(inB, i)
		b.Add(&logTask{key: key, log: &logB}, sub)
		frame.Msgs = append(frame.Msgs, reply(key, 10+i))
		wantB = append(wantB, fmt.Sprintf("%s/%d", key, 10+i))
	}
	ep.route(types.ServerID(0), frame)
	if na, nb := inA.Len(), inB.Len(); na != 1 || nb != 1 {
		t.Fatalf("inbox entries %d and %d, want one run each", na, nb)
	}
	a.Run() // routes each key to the slot it already has, and delivers the run
	b.Run()
	if !reflect.DeepEqual(logA, wantA) || !reflect.DeepEqual(logB, wantB) {
		t.Errorf("delivered %v and %v,\nwant %v and %v", logA, logB, wantA, wantB)
	}
}

// TestDemuxStuckDriverHoldsUpNoOtherKey routes one key to an inbox that
// nobody receives from, and has a read loop hand the demux far more of
// that key's frames than the inbox buffers before a frame for a second
// key: the read loop never waits, so the second key's driver gets its
// reply, and the stuck inbox keeps every run. Closing the demux then
// leaves no goroutine behind (the stuck inbox's overflow drainer is
// joined).
func TestDemuxStuckDriverHoldsUpNoOtherKey(t *testing.T) {
	idle := drainers()
	ep := &frameEndpoint{}
	d := NewDemux(ep)
	stuck := subscribe(t, d, "stuck")
	parked, err := d.NewInbox()
	if err != nil {
		t.Fatal(err)
	}
	stuck.Route(parked, 0) // a driver that routed its key and never receives
	const frames = 1000
	loopDone := make(chan struct{})
	p := &probe{until: time.Now().Add(5 * time.Second), start: func() {
		go func() { // the connection's read loop
			defer close(loopDone)
			for i := 0; i < frames; i++ {
				ep.route(types.ServerID(0), reply("stuck", i))
			}
			ep.route(types.ServerID(0), reply("live", 1))
		}()
	}}
	dr := newDriver(t, d)
	dr.Add(p, subscribe(t, d, "live"))
	dr.Run()
	<-loopDone
	if len(p.got) != 1 {
		t.Fatalf("the live key got %d replies (expired %v), want its one", len(p.got), p.expired)
	}
	if n := parked.Len(); n != frames {
		t.Errorf("the stuck inbox holds %d runs, want %d", n, frames)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if n := drainers(); n > idle {
		t.Errorf("%d mailbox drainers left after Close", n-idle)
	}
}

// inboxDriver returns a driver over a fresh inbox of d, and the inbox.
func inboxDriver(t *testing.T, d *Demux) (*drive.Inbox, *drive.Driver) {
	t.Helper()
	in, err := d.NewInbox()
	if err != nil {
		t.Fatal(err)
	}
	return in, drive.New(in, d, nil)
}

// drainers counts the goroutines running a transport.Mailbox's overflow
// drainer.
func drainers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "Mailbox[...]).drain(")
}
