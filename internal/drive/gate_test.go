package drive_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/drive"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// manualClock is a clock whose timer fires only when the test fires it.
type manualClock struct {
	mu    sync.Mutex
	now   time.Time
	armed int
	fire  chan time.Time
}

func newManualClock() *manualClock { return &manualClock{now: t0, fire: make(chan time.Time, 1)} }

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Arm(time.Time) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed++
	return c.fire
}

// fireAt moves the clock to at and fires its timer.
func (c *manualClock) fireAt(at time.Time) {
	c.mu.Lock()
	c.now = at
	c.mu.Unlock()
	c.fire <- at
}

// chanSource is a task's endpoint with no network behind it: it passes
// on what it is sent, and counts flushes.
type chanSource struct {
	sent    chan wire.Message
	flushes int
}

func newChanSource() *chanSource { return &chanSource{sent: make(chan wire.Message, 64)} }

func (s *chanSource) ID() types.ProcID           { return types.WriterID() }
func (s *chanSource) Recv() <-chan wire.Envelope { return nil }
func (s *chanSource) Close() error               { return nil }
func (s *chanSource) Flush() error               { s.flushes++; return nil }
func (s *chanSource) Route(*drive.Inbox, int)    {}
func (s *chanSource) Send(_ types.ProcID, m wire.Message) error {
	s.sent <- m
	return nil
}

// counted is a task whose Short calls — one per time the driver gates
// its inbox to wait for replies — are counted.
type counted struct {
	drive.Task
	waits int
}

func (c *counted) Short() int {
	c.waits++
	return c.Task.Short()
}

// gated runs k alone on a driver over a fresh inbox, on clock (nil: the
// wall clock), and returns the inbox once the driver waits on it — its
// gate set — and a channel closed when the run is over.
func gated(t *testing.T, k *counted, src drive.Source, clock drive.Clock) (*drive.Inbox, chan struct{}) {
	t.Helper()
	in := drive.NewInbox()
	d := drive.New(in, noCork{}, clock)
	d.Add(k, src)
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Run()
	}()
	waiting(t)
	return in, done
}

// waiting returns once a driver is blocked waiting for its replies.
func waiting(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, "drive.(*Driver).receive") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("the driver never waited for replies")
		}
	}
}

// putAcks puts one run per server of servers into in, each carrying
// that server's ack of m for slot 0 of src.
func putAcks(t *testing.T, in *drive.Inbox, src drive.Source, m wire.Message, servers ...int) {
	t.Helper()
	for _, i := range servers {
		r := drive.NewReplies()
		r.Add(drive.Delivery{Src: src, Env: wire.Envelope{From: types.ServerID(i), Msg: ackOf(t, m)}})
		if err := in.Put(r); err != nil {
			t.Fatal(err)
		}
	}
}

// over waits for a run to end.
func over(t *testing.T, done chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the run did not end")
	}
}

// asleep fails t unless the driver of k still waits where it first
// waited, with no reply delivered: what the inbox holds is withheld.
// The driver gated its inbox before the test's Puts, so reading k here
// is ordered after its writes.
func asleep(t *testing.T, c *counted, k *roundTask) {
	t.Helper()
	time.Sleep(10 * time.Millisecond) // time for a driver woken in error to take the replies
	if c.waits != 1 || k.Acks() != 0 {
		t.Fatalf("the driver waited %d times and took %d acks; want it still in its first wait", c.waits, k.Acks())
	}
}

// TestGateWakesATimedRoundOnce: a timed round under S = 3 can end early
// only on all three acks, so three acks arriving as three runs wake its
// driver once, on the third.
func TestGateWakesATimedRoundOnce(t *testing.T) {
	sh := shape3
	sh.RoundTimeout = time.Minute
	k := &roundTask{Round: drive.NewRound(sh), timed: true}
	c := &counted{Task: k}
	src := newChanSource()
	in, done := gated(t, c, src, nil)
	m := <-src.sent
	putAcks(t, in, src, m, 0, 1)
	if n := in.Len(); n != 2 {
		t.Fatalf("inbox holds %d runs after two acks, want both", n)
	}
	asleep(t, c, k)
	putAcks(t, in, src, m, 2)
	over(t, done)
	if k.Acks() != 3 || k.err != nil {
		t.Fatalf("ended with %d acks and %v, want all three and no error", k.Acks(), k.err)
	}
}

// TestGateWakesAnUntimedRoundAtItsQuorum: an untimed round under S = 3
// waits for two acks, so its driver sleeps through the first and wakes
// on the second.
func TestGateWakesAnUntimedRoundAtItsQuorum(t *testing.T) {
	sh := shape3
	sh.RoundTimeout = time.Minute
	k := &roundTask{Round: drive.NewRound(sh)}
	c := &counted{Task: k}
	src := newChanSource()
	in, done := gated(t, c, src, nil)
	m := <-src.sent
	putAcks(t, in, src, m, 2)
	asleep(t, c, k)
	putAcks(t, in, src, m, 0)
	over(t, done)
	if k.Acks() != 2 || k.err != nil {
		t.Fatalf("ended with %d acks and %v, want the quorum and no error", k.Acks(), k.err)
	}
}

// TestGateWakesASpeculativePreWriteOnOneReply: one PW_NACK decides a
// speculative pre-write, so its driver wakes on it — and runs the stamp
// query that follows — with the other two servers silent.
func TestGateWakesASpeculativePreWriteOnOneReply(t *testing.T) {
	cfg := core.Config{T: 1, Writers: 2, RoundTimeout: time.Minute, OpTimeout: time.Minute}
	w := core.NewWriter(cfg, types.WriterIDN(0), nil)
	// A first WRITE, answered in full, leaves the writer calm with a
	// trusted stamp cache: the next one speculates.
	var out []transport.Outgoing
	done, err := w.Start(t0, "a", &out)
	for !done && err == nil {
		round := out
		out = nil
		for _, o := range round {
			w.Deliver(wire.Envelope{From: o.To, Msg: ackOf(t, o.Msg)})
		}
		done, err = w.Advance(t0, &out)
	}
	if err != nil {
		t.Fatal(err)
	}
	src := newChanSource()
	in, ended := gated(t, &counted{Task: writeTask{w, "b"}}, src, nil)
	spec, ok := (<-src.sent).(wire.PW)
	if !ok || !spec.Spec {
		t.Fatalf("the second WRITE sent %+v, want a speculative pre-write", spec)
	}
	for range 2 {
		<-src.sent
	}
	r := drive.NewReplies()
	r.Add(drive.Delivery{Src: src, Env: wire.Envelope{From: types.ServerID(1), Msg: wire.PWNack{TS: spec.TS, Max: types.Stamp{Seq: spec.TS + 5}}}})
	if err := in.Put(r); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-src.sent:
		if q, ok := m.(wire.Read); !ok || q.Round != 1 {
			t.Fatalf("after the NACK sent %+v, want the stamp query", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the driver slept through the NACK")
	}
	in.Close() // ends the WRITE: its query is never answered
	over(t, ended)
}

// writeTask is a WRITE of v as a Task.
type writeTask struct {
	*core.Writer
	v types.Value
}

func (k writeTask) Start(now time.Time, out *[]transport.Outgoing) (bool, error) {
	return k.Writer.Start(now, k.v, out)
}
func (writeTask) End(error) {}

// TestGateReleasesAtTheTimer: a timed round under S = 3 with two acks
// in, withheld by the gate, and the third server silent: the timer's
// firing releases them, so its verdict decides at the quorum — no grace,
// no resend.
func TestGateReleasesAtTheTimer(t *testing.T) {
	clock := newManualClock()
	k := &roundTask{Round: drive.NewRound(shape3), timed: true}
	c := &counted{Task: k}
	src := newChanSource()
	in, done := gated(t, c, src, clock)
	m := <-src.sent
	putAcks(t, in, src, m, 0, 1)
	asleep(t, c, k)
	clock.fireAt(t0.Add(shape3.RoundTimeout))
	over(t, done)
	if k.err != nil || k.Acks() != 2 {
		t.Fatalf("ended with %d acks and %v, want the quorum and no error", k.Acks(), k.err)
	}
	if clock.armed != 1 || c.waits != 1 {
		t.Errorf("armed %d times and waited %d, want the round's timer once", clock.armed, c.waits)
	}
	if n := len(src.sent) + 1; n != 3 || src.flushes != 0 {
		t.Errorf("sent %d messages and flushed %d times, want the round alone", n, src.flushes)
	}
}
