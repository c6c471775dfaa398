package transport

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"luckystore/internal/metrics"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// gateEndpoint records sends and can block inside Send so a test can
// pile up messages behind an in-flight flush. When gated, each Send
// records the frame, signals entered, and then waits for one token on
// gate — so after receiving entered, the frame is visible in sent.
type gateEndpoint struct {
	sent    []wire.Envelope // owned by the flusher goroutine while gated
	gate    chan struct{}
	entered chan struct{}
	mbox    *Mailbox[wire.Envelope]
}

func newGateEndpoint() *gateEndpoint {
	return &gateEndpoint{
		gate:    make(chan struct{}),
		entered: make(chan struct{}, 64),
		mbox:    NewMailbox[wire.Envelope](),
	}
}

func (g *gateEndpoint) ID() types.ProcID { return types.WriterID() }

func (g *gateEndpoint) Send(to types.ProcID, m wire.Message) error {
	g.sent = append(g.sent, wire.Envelope{To: to, Msg: m})
	g.entered <- struct{}{}
	<-g.gate
	return nil
}

func (g *gateEndpoint) Recv() <-chan wire.Envelope { return g.mbox.Out() }

func (g *gateEndpoint) Close() error {
	g.mbox.Close()
	return nil
}

// release waits for the flusher to enter Send (frame recorded) and lets
// it through.
func (g *gateEndpoint) release(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never entered Send")
	}
	g.gate <- struct{}{}
}

func keyedMsg(key string, tsr types.ReaderTS) wire.Message {
	return wire.Keyed{Key: key, Inner: wire.Read{TSR: tsr, Round: 1}}
}

func TestCoalescerLoneSendUnbatched(t *testing.T) {
	inner := newGateEndpoint()
	c := NewCoalescer(inner)
	if err := c.Send(types.ServerID(0), keyedMsg("k", 1)); err != nil {
		t.Fatal(err)
	}
	inner.release(t)
	c.Close()
	if len(inner.sent) != 1 {
		t.Fatalf("sent %d frames, want 1", len(inner.sent))
	}
	if _, ok := inner.sent[0].Msg.(wire.Keyed); !ok {
		t.Errorf("lone send framed as %T, want wire.Keyed", inner.sent[0].Msg)
	}
}

func TestCoalescerBatchesConcurrentSends(t *testing.T) {
	inner := newGateEndpoint()
	c := NewCoalescer(inner)

	// First send: the flusher picks it up and blocks inside inner.Send.
	if err := c.Send(types.ServerID(0), keyedMsg("k0", 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inner.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never started")
	}

	// With the flusher stuck, these queue: three keyed messages for
	// server 1 and one more for server 0.
	for i := 1; i <= 3; i++ {
		if err := c.Send(types.ServerID(1), keyedMsg("k", types.ReaderTS(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Send(types.ServerID(0), keyedMsg("k1", 2)); err != nil {
		t.Fatal(err)
	}

	inner.gate <- struct{}{} // release the first frame
	inner.release(t)         // second frame
	inner.release(t)         // third frame
	c.Close()

	sent := inner.sent
	if len(sent) != 3 {
		t.Fatalf("sent %d frames, want 3 (first + one per destination): %+v", len(sent), sent)
	}
	var batched int
	for _, env := range sent[1:] {
		if b, ok := env.Msg.(wire.Batch); ok {
			if env.To != types.ServerID(1) {
				t.Errorf("batch went to %s, want s1", env.To)
			}
			if len(b.Msgs) != 3 {
				t.Errorf("batch carries %d messages, want 3", len(b.Msgs))
			}
			batched++
		}
	}
	if batched != 1 {
		t.Errorf("saw %d batch frames, want exactly 1", batched)
	}
}

func TestCoalescerDoesNotBatchUnkeyed(t *testing.T) {
	inner := newGateEndpoint()
	c := NewCoalescer(inner)

	if err := c.Send(types.ServerID(0), keyedMsg("k", 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inner.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never started")
	}
	if err := c.Send(types.ServerID(1), wire.ABDRead{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(types.ServerID(1), wire.ABDRead{Seq: 2}); err != nil {
		t.Fatal(err)
	}

	inner.gate <- struct{}{}
	inner.release(t)
	inner.release(t)
	c.Close()

	if len(inner.sent) != 3 {
		t.Fatalf("sent %d frames, want 3", len(inner.sent))
	}
	for _, env := range inner.sent {
		if _, ok := env.Msg.(wire.Batch); ok {
			t.Errorf("unkeyed messages were batched: %+v", env.Msg)
		}
	}
}

func TestCoalescerPreservesPerDestinationOrder(t *testing.T) {
	inner := newGateEndpoint()
	c := NewCoalescer(inner)

	if err := c.Send(types.ServerID(1), keyedMsg("k", 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inner.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never started")
	}
	for i := 2; i <= 4; i++ {
		if err := c.Send(types.ServerID(1), keyedMsg("k", types.ReaderTS(i))); err != nil {
			t.Fatal(err)
		}
	}
	inner.gate <- struct{}{}
	inner.release(t)
	c.Close()

	if len(inner.sent) != 2 {
		t.Fatalf("sent %d frames, want 2", len(inner.sent))
	}
	b, ok := inner.sent[1].Msg.(wire.Batch)
	if !ok {
		t.Fatalf("second frame is %T, want wire.Batch", inner.sent[1].Msg)
	}
	for i, m := range b.Msgs {
		got := m.(wire.Keyed).Inner.(wire.Read).TSR
		if got != types.ReaderTS(i+2) {
			t.Errorf("batch entry %d has tsr %d, want %d (send order)", i, got, i+2)
		}
	}
}

// failingEndpoint rejects every Send — the shape of a dead TCP peer,
// whose writes fail promptly. Close must still complete: send errors
// are dropped (a dead server is a crashed server), not retried.
type failingEndpoint struct {
	mbox *Mailbox[wire.Envelope]
	once sync.Once
}

func (w *failingEndpoint) ID() types.ProcID { return types.WriterID() }

func (w *failingEndpoint) Send(types.ProcID, wire.Message) error { return ErrClosed }

func (w *failingEndpoint) Recv() <-chan wire.Envelope { return w.mbox.Out() }

func (w *failingEndpoint) Close() error {
	w.once.Do(func() { w.mbox.Close() })
	return nil
}

func TestCoalescerCloseCompletesOnDeadPeer(t *testing.T) {
	inner := &failingEndpoint{mbox: NewMailbox[wire.Envelope]()}
	c := NewCoalescer(inner)
	for i := 0; i < 8; i++ {
		if err := c.Send(types.ServerID(0), keyedMsg("k", types.ReaderTS(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- c.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind a dead peer")
	}
}

// The flush-on-Close guarantee: every message Send accepted before
// Close has been handed to the inner endpoint by the time Close
// returns — nothing queued is dropped. The router's rebalance handoff
// retires cluster connections with exactly this Close.
func TestCoalescerCloseFlushesPending(t *testing.T) {
	inner := newGateEndpoint()
	c := NewCoalescer(inner)

	// First send: the flusher picks it up and blocks inside inner.Send.
	if err := c.Send(types.ServerID(0), keyedMsg("k0", 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inner.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never started")
	}
	// With the flusher stuck, these queue behind it.
	for i := 1; i <= 3; i++ {
		if err := c.Send(types.ServerID(1), keyedMsg("k", types.ReaderTS(i))); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() { done <- c.Close() }()

	inner.gate <- struct{}{} // release the in-flight frame
	inner.release(t)         // the queued batch must still go out
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}

	if len(inner.sent) != 2 {
		t.Fatalf("sent %d frames, want 2 (in-flight + queued batch): %+v", len(inner.sent), inner.sent)
	}
	b, ok := inner.sent[1].Msg.(wire.Batch)
	if !ok {
		t.Fatalf("queued traffic flushed as %T, want wire.Batch", inner.sent[1].Msg)
	}
	if len(b.Msgs) != 3 {
		t.Errorf("batch carries %d messages, want all 3 queued", len(b.Msgs))
	}
}

func TestCoalescerFlushWaitsForQueued(t *testing.T) {
	inner := newGateEndpoint()
	c := NewCoalescer(inner)

	if err := c.Send(types.ServerID(0), keyedMsg("k0", 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-inner.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher never started")
	}
	if err := c.Send(types.ServerID(0), keyedMsg("k1", 2)); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- c.Flush() }()
	select {
	case <-done:
		t.Fatal("Flush returned while a message was still queued")
	case <-time.After(20 * time.Millisecond):
	}

	inner.gate <- struct{}{}
	inner.release(t)
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Flush = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush never returned after the drain")
	}
	if len(inner.sent) != 2 {
		t.Fatalf("sent %d frames, want 2", len(inner.sent))
	}
	c.Close()
}

func TestCoalescerFlushIdle(t *testing.T) {
	inner := newGateEndpoint()
	c := NewCoalescer(inner)
	if err := c.Flush(); err != nil {
		t.Errorf("Flush on idle coalescer = %v", err)
	}
	c.Close()
	if err := c.Flush(); err != nil {
		t.Errorf("Flush after Close = %v", err)
	}
}

func TestCoalescerClosed(t *testing.T) {
	inner := newGateEndpoint()
	c := NewCoalescer(inner)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(types.ServerID(0), keyedMsg("k", 1)); err != ErrClosed {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

// runGate is a BatchSender that records every run it is handed; once
// armed, the next SendBatched blocks until released.
type runGate struct {
	gateEndpoint
	mu    sync.Mutex
	runs  []gatedRun
	armed bool
}

type gatedRun struct {
	to    types.ProcID
	width int
}

func (g *runGate) SendBatched(to types.ProcID, msgs []wire.Message) error {
	g.mu.Lock()
	g.runs = append(g.runs, gatedRun{to, len(msgs)})
	block := g.armed
	g.armed = false
	g.mu.Unlock()
	if block {
		g.entered <- struct{}{}
		<-g.gate
	}
	return nil
}

// warm sends one message to each destination and waits for it to reach
// the transport, so the destinations are up: from here on an idle
// coalescer's sender writes through on its own goroutine.
func warm(t *testing.T, c *Coalescer, dests ...types.ProcID) {
	t.Helper()
	for _, to := range dests {
		if err := c.Send(to, keyedMsg("warm", 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// The combining flush, deterministically: a sender that finds the
// coalescer idle writes its message through as a run of width 1 on its
// own goroutine; whatever other senders queue while it is inside the
// transport leaves as one run per destination — width > 1 where they
// piled up — carried by that same sender before its Send returns. No
// Flush, no Close and no other goroutine is involved in the drain.
func TestCoalescerCombinesBehindInProgressFlush(t *testing.T) {
	inner := &runGate{gateEndpoint: *newGateEndpoint()}
	c := NewCoalescer(inner)
	reg := metrics.NewRegistry()
	met := NewCoalescerMetrics(reg, "writer")
	warm(t, c, types.ServerID(0), types.ServerID(1))
	c.SetMetrics(met)
	inner.mu.Lock()
	inner.runs, inner.armed = nil, true
	inner.mu.Unlock()

	first := make(chan error, 1)
	go func() { first <- c.Send(types.ServerID(0), keyedMsg("k0", 1)) }()
	select {
	case <-inner.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the idle coalescer's sender never wrote through")
	}
	// The flush is in progress: these only enqueue, and return at once.
	for i := 1; i <= 3; i++ {
		if err := c.Send(types.ServerID(0), keyedMsg("k", types.ReaderTS(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Send(types.ServerID(1), keyedMsg("k", 9)); err != nil {
		t.Fatal(err)
	}
	inner.mu.Lock()
	if n := len(inner.runs); n != 1 {
		t.Fatalf("%d runs reached the transport while the first was blocked, want 1", n)
	}
	inner.mu.Unlock()
	select {
	case <-first:
		t.Fatal("the flushing Send returned while its write was blocked")
	default:
	}

	inner.gate <- struct{}{}
	select {
	case err := <-first: // returns only after it drained what queued behind it
		if err != nil {
			t.Fatalf("flushing Send = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flushing Send never returned")
	}

	want := []gatedRun{{types.ServerID(0), 1}, {types.ServerID(0), 3}, {types.ServerID(1), 1}}
	inner.mu.Lock()
	got := append([]gatedRun(nil), inner.runs...)
	inner.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("runs = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("run %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// A write-through send still counts as a run of width 1.
	if r, m := met.Runs.Value(), met.Msgs.Value(); r != 3 || m != 5 {
		t.Errorf("metrics: %d runs carrying %d messages, want 3 carrying 5", r, m)
	}
	if err := c.Flush(); err != nil { // nothing left: returns at once
		t.Errorf("Flush = %v", err)
	}
	c.Close()
}

// A lone Send to an up destination on an idle coalescer reaches the
// transport before it returns, on the caller's goroutine — the hop the
// flusher goroutine used to cost.
func TestCoalescerLoneSendWritesThrough(t *testing.T) {
	inner := &callerEndpoint{mbox: NewMailbox[wire.Envelope]()}
	c := NewCoalescer(inner)
	defer c.Close()
	warm(t, c, types.ServerID(0), types.ServerID(1), types.ServerID(2))
	base := inner.sent
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		if err := c.Send(types.ServerID(i%3), keyedMsg("k", types.ReaderTS(i+1))); err != nil {
			t.Fatal(err)
		}
		if inner.sent != base+i+1 {
			t.Fatalf("after %d Sends the transport has seen %d messages", i+1, inner.sent-base)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d → %d across write-through sends", before, after)
	}
}

// callerEndpoint counts sends without any synchronization of its own:
// past the warm-up (ordered by Flush) that is only correct if every
// Send happens on the calling goroutine — the race detector would flag
// a flusher goroutine.
type callerEndpoint struct {
	sent int
	mbox *Mailbox[wire.Envelope]
}

func (e *callerEndpoint) ID() types.ProcID                      { return types.WriterID() }
func (e *callerEndpoint) Send(types.ProcID, wire.Message) error { e.sent++; return nil }
func (e *callerEndpoint) Recv() <-chan wire.Envelope            { return e.mbox.Out() }
func (e *callerEndpoint) Close() error                          { e.mbox.Close(); return nil }

// dialEndpoint models a transport whose sends to one destination dial:
// each Send to slow blocks until the test supplies its result; sends to
// any other destination succeed at once.
type dialEndpoint struct {
	slow    types.ProcID
	entered chan struct{}
	result  chan error
	mu      sync.Mutex
	sent    []types.ProcID
	mbox    *Mailbox[wire.Envelope]
}

func (e *dialEndpoint) ID() types.ProcID           { return types.WriterID() }
func (e *dialEndpoint) Recv() <-chan wire.Envelope { return e.mbox.Out() }
func (e *dialEndpoint) Close() error               { e.mbox.Close(); return nil }
func (e *dialEndpoint) Send(to types.ProcID, _ wire.Message) error {
	if to == e.slow {
		e.entered <- struct{}{}
		if err := <-e.result; err != nil {
			return err
		}
	}
	e.mu.Lock()
	e.sent = append(e.sent, to)
	e.mu.Unlock()
	return nil
}

func (e *dialEndpoint) sentTo(to types.ProcID) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, d := range e.sent {
		if d == to {
			n++
		}
	}
	return n
}

// A dial never runs on a sender's goroutine: Send to a destination that
// was never reached, or whose last send failed, returns while the inner
// send is still blocked; once a send to it has succeeded the next one
// writes through on the caller.
func TestCoalescerDownDestinationNeverBlocksSender(t *testing.T) {
	down, live := types.ServerID(2), types.ServerID(0)
	inner := &dialEndpoint{slow: down, entered: make(chan struct{}), result: make(chan error), mbox: NewMailbox[wire.Envelope]()}
	c := NewCoalescer(inner)
	defer c.Close()
	warm(t, c, live)

	entered := func() {
		t.Helper()
		select {
		case <-inner.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("no flusher picked up the down destination's message")
		}
	}
	for round, result := range []error{ErrUnknownPeer, ErrUnknownPeer, nil} {
		// Returns although the inner send cannot complete: cold in round
		// 0, failed last time in rounds 1 and 2.
		if err := c.Send(down, keyedMsg("k", 1)); err != nil {
			t.Fatal(err)
		}
		entered()
		// Traffic for the live server queues behind the blocked flusher
		// without blocking its sender either.
		if err := c.Send(live, keyedMsg("k", 2)); err != nil {
			t.Fatal(err)
		}
		inner.result <- result
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := inner.sentTo(live); got != round+2 {
			t.Fatalf("round %d: live server saw %d messages, want %d", round, got, round+2)
		}
	}

	// The destination is up now: the sender carries its own message, so
	// Send returns only once the inner send has.
	done := make(chan error, 1)
	go func() { done <- c.Send(down, keyedMsg("k", 3)) }()
	entered()
	select {
	case <-done:
		t.Fatal("Send to an up destination returned before its write-through did")
	case <-time.After(20 * time.Millisecond):
	}
	inner.result <- nil
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := inner.sentTo(down); got != 2 {
		t.Errorf("down destination saw %d messages, want 2", got)
	}
}

// recorded returns a copy of the runs handed over so far.
func (g *runGate) recorded() []gatedRun {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]gatedRun(nil), g.runs...)
}

// The cork: while one is held Send only enqueues, whoever sends; every
// Uncork flushes what accumulated as one run per destination on the
// caller's goroutine, and Send writes through again once the last cork
// is released. Flush and Close override a cork instead of waiting for
// it, and corked traffic for a destination that is not up still leaves
// on the transient goroutine, never on the uncorking caller's.
func TestCoalescerCork(t *testing.T) {
	s0, s1 := types.ServerID(0), types.ServerID(1)
	inner := &runGate{gateEndpoint: *newGateEndpoint()}
	c := NewCoalescer(inner)
	warm(t, c, s0, s1)
	base := len(inner.recorded())
	since := func() []gatedRun { return inner.recorded()[base:] }
	send := func(to types.ProcID, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := c.Send(to, keyedMsg("k", types.ReaderTS(i+1))); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Nested corks: nothing leaves while either is held, not even a lone
	// Send from another goroutine; the inner Uncork flushes what is queued
	// so far (a corker never waits on another corker's release) but leaves
	// Send enqueue-only; the outer Uncork ships the rest and lifts the cork.
	c.Cork()
	c.Cork()
	send(s0, 32)
	send(s1, 32)
	other := make(chan error, 1)
	go func() { other <- c.Send(s0, keyedMsg("lone", 1)) }()
	if err := <-other; err != nil {
		t.Fatal(err)
	}
	if got := since(); len(got) != 0 {
		t.Fatalf("runs left under a cork: %v", got)
	}
	c.Uncork()
	if got := since(); len(got) != 2 || got[0] != (gatedRun{s0, 33}) || got[1] != (gatedRun{s1, 32}) {
		t.Fatalf("inner uncork shipped %v, want one run per destination: [{s0 33} {s1 32}]", got)
	}
	send(s1, 3)
	if got := since(); len(got) != 2 {
		t.Fatalf("Send wrote through with a cork still held: %v", got)
	}
	c.Uncork()
	if got := since(); len(got) != 3 || got[2] != (gatedRun{s1, 3}) {
		t.Fatalf("outer uncork shipped %v, want a third run {s1 3}", got)
	}
	send(s0, 1)
	if got := since(); len(got) != 4 || got[3] != (gatedRun{s0, 1}) {
		t.Fatalf("Send after the last uncork did not write through: %v", got)
	}

	// Flush during a cork drains the corked traffic itself.
	base = len(inner.recorded())
	c.Cork()
	send(s0, 5)
	flushed := make(chan error, 1)
	go func() { flushed <- c.Flush() }()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush hung on corked traffic")
	}
	if got := since(); len(got) != 1 || got[0] != (gatedRun{s0, 5}) {
		t.Fatalf("Flush under a cork shipped %v, want [{s0 5}]", got)
	}

	// A down destination's corked traffic goes to the transient goroutine:
	// the uncorking caller returns while the inner send is still blocked.
	down := types.ServerID(2)
	send(down, 4) // never sent to, so not up; still corked
	inner.mu.Lock()
	inner.armed = true
	inner.mu.Unlock()
	c.Uncork() // must not block on the armed run
	select {
	case <-inner.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no flusher picked up the down destination's corked traffic")
	}

	// Close during a cork, with that flush still in flight and more
	// traffic corked behind it: neither hangs nor drops.
	c.Cork()
	send(s1, 7)
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	inner.gate <- struct{}{} // let the blocked run through
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on corked traffic")
	}
	got := since()
	if len(got) != 3 || got[1] != (gatedRun{down, 4}) || got[2] != (gatedRun{s1, 7}) {
		t.Fatalf("after Close: runs %v, want [{s0 5} {s2 4} {s1 7}]", got)
	}
	if err := c.Send(s0, keyedMsg("k", 1)); err != ErrClosed {
		t.Errorf("Send after Close = %v, want ErrClosed", err)
	}
	c.Uncork() // the batch driver's deferred release after a Close: a no-op
}
