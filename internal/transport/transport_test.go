package transport

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"luckystore/internal/types"
	"luckystore/internal/wire"
)

func env(i int) wire.Envelope {
	return wire.Envelope{
		From: types.WriterID(),
		To:   types.ServerID(0),
		Msg:  wire.Read{TSR: types.ReaderTS(i + 1), Round: 1},
	}
}

func TestMailboxFIFO(t *testing.T) {
	m := NewMailbox[wire.Envelope]()
	defer m.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if err := m.Put(env(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		got := <-m.Out()
		r, ok := got.Msg.(wire.Read)
		if !ok || r.TSR != types.ReaderTS(i+1) {
			t.Fatalf("message %d: got %+v, want TSR %d", i, got.Msg, i+1)
		}
	}
}

func TestMailboxPutNeverBlocks(t *testing.T) {
	m := NewMailbox[wire.Envelope]()
	defer m.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Nobody consumes; 10k puts must still complete promptly.
		for i := 0; i < 10000; i++ {
			if err := m.Put(env(i)); err != nil {
				t.Errorf("Put(%d): %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Put blocked on a slow consumer")
	}
	if m.Len() < 9000 {
		t.Errorf("Len() = %d, want most of the 10000 still queued", m.Len())
	}
	// The backlog comes out in order — the channel buffer first, the
	// overflow queue behind it — and once it is gone the mailbox is back
	// to direct delivery with no drainer left behind.
	for i := 0; i < 10000; i++ {
		if r := (<-m.Out()).Msg.(wire.Read); r.TSR != types.ReaderTS(i+1) {
			t.Fatalf("backlog out of order at %d: got TSR %d", i, r.TSR)
		}
	}
	waitDrainerGone(t, m)
	if err := m.Put(env(0)); err != nil {
		t.Fatal(err)
	}
	if m.overflowing() {
		t.Error("a Put on an emptied mailbox went to the overflow queue")
	}
}

// overflowing reports whether the mailbox is off its direct path: a
// drainer is running (which implies queued or in-hand envelopes).
func (m *Mailbox[T]) overflowing() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// waitDrainerGone waits for the overflow drainer to notice its queue is
// empty and exit (it does so right after its last delivery).
func waitDrainerGone[T any](t *testing.T, m *Mailbox[T]) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); m.overflowing(); {
		if time.Now().After(deadline) {
			t.Fatal("overflow drainer still running on an empty mailbox")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func TestMailboxCloseIdempotentAndPutAfterClose(t *testing.T) {
	m := NewMailbox[wire.Envelope]()
	m.Close()
	m.Close() // must not panic or deadlock
	if err := m.Put(env(0)); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}
	if _, ok := <-m.Out(); ok {
		t.Error("Out() still open after Close")
	}
}

func TestMailboxCloseWithBacklog(t *testing.T) {
	m := NewMailbox[wire.Envelope]()
	for i := 0; i < 50; i++ {
		if err := m.Put(env(i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		m.Close() // must not hang even though nobody consumed
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with undelivered backlog")
	}
	// What the channel buffer already held is still readable, in order,
	// and then Out reports closed; the overflow queue was discarded.
	n := 0
	for got := range m.Out() {
		if r := got.Msg.(wire.Read); r.TSR != types.ReaderTS(n+1) {
			t.Fatalf("envelope %d after Close has TSR %d", n, r.TSR)
		}
		n++
	}
	if n > mailboxBuffer+1 { // the drainer may have had one more in hand
		t.Errorf("%d envelopes survived Close, want at most the buffer (%d) plus one", n, mailboxBuffer)
	}
	if m.Len() != 0 {
		t.Errorf("Len() = %d after Close and drain", m.Len())
	}
}

func TestMailboxConcurrentProducers(t *testing.T) {
	m := NewMailbox[wire.Envelope]()
	defer m.Close()
	const producers, each = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := m.Put(env(i)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}()
	}
	received := 0
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for range m.Out() {
			received++
			if received == producers*each {
				return
			}
		}
	}()
	wg.Wait()
	select {
	case <-recvDone:
	case <-time.After(10 * time.Second):
		t.Fatalf("received %d of %d envelopes", received, producers*each)
	}
}

// FIFO must hold even when the consumer lags behind producers so the
// drainer goes through its requeue path.
func TestMailboxFIFOUnderSlowConsumer(t *testing.T) {
	m := NewMailbox[wire.Envelope]()
	defer m.Close()
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			if err := m.Put(env(i)); err != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		if i%50 == 0 {
			time.Sleep(time.Millisecond)
		}
		got := <-m.Out()
		r := got.Msg.(wire.Read)
		if r.TSR != types.ReaderTS(i+1) {
			t.Fatalf("out of order at %d: got TSR %d", i, r.TSR)
		}
	}
}

// FIFO across the direct↔overflow boundary, deterministically: bursts
// smaller than, equal to and larger than the channel buffer alternate
// with full drains, so the mailbox goes direct → overflow → direct over
// and over, and a burst that starts while the drainer of the previous
// one is still finishing must queue behind it.
func TestMailboxFIFOAcrossOverflowBoundary(t *testing.T) {
	m := NewMailbox[wire.Envelope]()
	defer m.Close()
	next, want := 0, 0
	consume := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if r := (<-m.Out()).Msg.(wire.Read); r.TSR != types.ReaderTS(want+1) {
				t.Fatalf("envelope %d delivered as TSR %d", want, r.TSR)
			}
			want++
		}
	}
	bursts := []int{1, mailboxBuffer - 1, mailboxBuffer, mailboxBuffer + 1, 3 * mailboxBuffer, 2, 5*mailboxBuffer + 3, 1}
	for round := 0; round < 20; round++ {
		for _, burst := range bursts {
			for i := 0; i < burst; i++ {
				if err := m.Put(env(next)); err != nil {
					t.Fatal(err)
				}
				next++
			}
			if burst > mailboxBuffer && !m.overflowing() && m.Len() > mailboxBuffer {
				t.Fatalf("burst of %d holds %d envelopes without an overflow drainer", burst, m.Len())
			}
			// Odd rounds leave a remainder in flight, so the next burst
			// arrives while the mailbox is still overflowing.
			if round%2 == 1 && burst > 2 {
				consume(burst - 2)
				continue
			}
			consume(next - want)
		}
	}
	consume(next - want)
	waitDrainerGone(t, m)
}

// The same boundary under real concurrency: producer and consumer take
// turns lagging, so the mailbox crosses between direct delivery and the
// overflow queue many times while order is checked on every envelope.
func TestMailboxFIFOProducerConsumerLagAlternates(t *testing.T) {
	m := NewMailbox[wire.Envelope]()
	defer m.Close()
	const n = 20000
	go func() {
		for i := 0; i < n; i++ {
			if (i/500)%2 == 0 && i%100 == 0 {
				time.Sleep(200 * time.Microsecond) // producer lags: direct path
			}
			if err := m.Put(env(i)); err != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		if (i/500)%2 == 1 && i%100 == 0 {
			time.Sleep(200 * time.Microsecond) // consumer lags: overflow path
		}
		if r := (<-m.Out()).Msg.(wire.Read); r.TSR != types.ReaderTS(i+1) {
			t.Fatalf("out of order at %d: got TSR %d", i, r.TSR)
		}
	}
}

// A mailbox whose consumer keeps up parks no goroutine: creating and
// using a thousand of them leaves the goroutine count where it was.
func TestMailboxHasNoResidentGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	boxes := make([]*Mailbox[wire.Envelope], 1000)
	for i := range boxes {
		boxes[i] = NewMailbox[wire.Envelope]()
		if err := boxes[i].Put(env(i)); err != nil {
			t.Fatal(err)
		}
		<-boxes[i].Out()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("1000 live mailboxes grew the goroutine count %d → %d", before, after)
	}
	for _, m := range boxes {
		m.Close()
	}
}

// A gated mailbox withholds what is put until it weighs what the gate
// asks for, then hands it all over in order; what is withheld counts in
// Len. An ungated mailbox ignores the gate.
func TestMailboxGateWithholdsUntilItsWeight(t *testing.T) {
	m := NewGatedMailbox(func(v int) int { return v })
	defer m.Close()
	m.Gate(5)
	for _, v := range []int{2, 2} {
		if err := m.Put(v); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.Out()) != 0 || m.Len() != 2 {
		t.Fatalf("%d handed over, %d queued, want both withheld", len(m.Out()), m.Len())
	}
	if err := m.Put(1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []int{2, 2, 1} {
		select {
		case v := <-m.Out():
			if v != want {
				t.Fatalf("got %d, want %d", v, want)
			}
		default:
			t.Fatal("the gate held on at its weight")
		}
	}
	if err := m.Put(7); err != nil || len(m.Out()) != 1 {
		t.Fatalf("after the gate opened Put = %v with %d handed over, want it direct", err, len(m.Out()))
	}

	u := NewMailbox[int]()
	defer u.Close()
	u.Gate(5)
	if err := u.Put(1); err != nil || len(u.Out()) != 1 {
		t.Fatalf("an ungated mailbox's Put = %v with %d handed over, want it direct", err, len(u.Out()))
	}
}

// Gate(0) hands over what the gate withholds, in order behind what Out
// already holds, and past Out's buffer by the drainer; Close drops what
// is withheld and closes Out.
func TestMailboxReleaseAndClose(t *testing.T) {
	m := NewGatedMailbox(func(int) int { return 1 })
	const n = 3 * mailboxBuffer
	if err := m.Put(0); err != nil {
		t.Fatal(err)
	}
	m.Gate(n + 1)
	for i := 1; i < n; i++ {
		if err := m.Put(i); err != nil {
			t.Fatal(err)
		}
	}
	m.Gate(0)
	for i := 0; i < n; i++ {
		if v := <-m.Out(); v != i {
			t.Fatalf("released out of order at %d: got %d", i, v)
		}
	}
	waitDrainerGone(t, m)
	m.Gate(2)
	if err := m.Put(1); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if v, ok := <-m.Out(); ok {
		t.Fatalf("Close handed over %d, want the withheld element dropped", v)
	}
	if err := m.Put(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
}

func TestSendAllToleratesPartialFailure(t *testing.T) {
	ep := &fakeEndpoint{fail: map[types.ProcID]bool{types.ServerID(1): true}}
	out := []Outgoing{
		{To: types.ServerID(0), Msg: wire.ABDRead{Seq: 1}},
		{To: types.ServerID(1), Msg: wire.ABDRead{Seq: 1}},
		{To: types.ServerID(2), Msg: wire.ABDRead{Seq: 1}},
	}
	// One unreachable peer is a crashed server: tolerated.
	if err := SendAll(ep, out); err != nil {
		t.Fatalf("SendAll with one failed peer = %v, want nil", err)
	}
	// All three sends must have been attempted despite the failure.
	if len(ep.sent) != 2 {
		t.Errorf("delivered %d messages, want 2 (failure on s1 only)", len(ep.sent))
	}
}

func TestSendAllFailsWhenAllSendsFail(t *testing.T) {
	ep := &fakeEndpoint{fail: map[types.ProcID]bool{
		types.ServerID(0): true, types.ServerID(1): true,
	}}
	out := []Outgoing{
		{To: types.ServerID(0), Msg: wire.ABDRead{Seq: 1}},
		{To: types.ServerID(1), Msg: wire.ABDRead{Seq: 1}},
	}
	if err := SendAll(ep, out); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("SendAll with all sends failed = %v, want ErrUnknownPeer", err)
	}
}

func TestSendAllEmpty(t *testing.T) {
	if err := SendAll(&fakeEndpoint{}, nil); err != nil {
		t.Errorf("SendAll(nil) = %v, want nil", err)
	}
}

type fakeEndpoint struct {
	fail map[types.ProcID]bool
	sent []Outgoing
}

func (f *fakeEndpoint) ID() types.ProcID { return types.WriterID() }

func (f *fakeEndpoint) Send(to types.ProcID, m wire.Message) error {
	if f.fail[to] {
		return ErrUnknownPeer
	}
	f.sent = append(f.sent, Outgoing{To: to, Msg: m})
	return nil
}

func (f *fakeEndpoint) Recv() <-chan wire.Envelope { return nil }
func (f *fakeEndpoint) Close() error               { return nil }
