// Package keyed multiplexes many independent registers over one set of
// servers: every protocol message travels wrapped in a wire.Keyed
// envelope naming its register, servers run one core automaton per key,
// and clients subscribe per-key virtual endpoints from a demultiplexer.
//
// Each key is a completely independent SWMR atomic register with its
// own timestamp space and its own freezing state — the composition
// inherits the per-register guarantees (atomicity is compositional:
// linearizable objects compose).
package keyed

import (
	"fmt"
	"sync"
	"sync/atomic"

	"luckystore/internal/drive"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Demux splits one client endpoint into per-key subscriptions, so that
// different keys can run operations concurrently from one client
// process. A subscription sends its messages wrapped for its key and has
// no inbox of its own: its replies go to the drive.Inbox slot it is
// routed to — the inbox of the driver running an operation on the key —
// and are dropped while it is routed nowhere.
//
// Replies are routed a frame at a time, on the goroutine that read the
// frame when the endpoint is a transport.FrameRouter, and otherwise by a
// pump goroutine reading Recv, a message at a time.
//
// Subscriptions live in a plain map under a read-write lock: routing
// takes the read lock once per frame, and a caller finding a key's
// handle once per call, so readers never wait on each other; only the
// cold Subscribe and Sub.Close paths write. The only other lock routing
// takes under it is an inbox's, in Put, which never blocks.
type Demux struct {
	inner transport.Endpoint

	mu      sync.RWMutex // guards subs, closed and inboxes
	subs    map[string]*Sub
	closed  bool
	inboxes []*drive.Inbox // every inbox NewInbox made; Close closes them
	done    chan struct{}  // closed when no pump runs
}

// NewDemux wraps an endpoint and routes its replies: by the endpoint's
// own read loops when it is a transport.FrameRouter that accepts the
// routing, by a pump goroutine reading Recv otherwise. The demux takes
// ownership: closing the demux closes the endpoint.
func NewDemux(ep transport.Endpoint) *Demux {
	d := &Demux{
		inner: ep,
		subs:  make(map[string]*Sub),
		done:  make(chan struct{}),
	}
	if r, ok := ep.(transport.FrameRouter); ok && r.RouteFrames(d.route) == nil {
		close(d.done)
		return d
	}
	go d.pump()
	return d
}

// Subscribe returns key's routed subscription: an endpoint whose sends
// are wrapped for key and whose replies go where Route points. Its Recv
// channel is nil. A subscription carries a handle, mk(sub) — the
// caller's per-key state, which Handle finds — made before the
// subscription is published; a nil mk leaves it nil. Subscribing a key
// twice returns the first subscription, and the second handle is
// dropped.
func (d *Demux) Subscribe(key string, mk func(*Sub) any) (*Sub, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	s := &Sub{key: key, demux: d}
	if mk != nil {
		s.handle = mk(s)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, transport.ErrClosed
	}
	if old, ok := d.subs[key]; ok {
		return old, nil
	}
	d.subs[key] = s
	return s, nil
}

// Handle returns the handle of key's subscription, nil when the key has
// none.
func (d *Demux) Handle(key string) any {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if s, ok := d.subs[key]; ok {
		return s.handle
	}
	return nil
}

// NewInbox makes an inbox and registers it, so that Close wakes a driver
// waiting on it.
func (d *Demux) NewInbox() (*drive.Inbox, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, transport.ErrClosed
	}
	in := drive.NewInbox()
	d.inboxes = append(d.inboxes, in)
	return in, nil
}

// Flush implements transport.Flusher by delegating to the underlying
// endpoint when it buffers sends (a Coalescer); an unbuffered endpoint
// has nothing to drain. Per-key sends all funnel through the one inner
// endpoint, so one Flush covers every key.
func (d *Demux) Flush() error {
	if f, ok := d.inner.(transport.Flusher); ok {
		return f.Flush()
	}
	return nil
}

var _ drive.Corker = (*Demux)(nil)

// Cork holds back the sends of every key until the matching Uncork, so a
// caller driving many keys from one goroutine emits a protocol round as
// one frame per server. It forwards to the wrapped endpoint's cork and
// is a no-op over an endpoint that does not buffer sends.
func (d *Demux) Cork() {
	if c, ok := d.inner.(drive.Corker); ok {
		c.Cork()
	}
}

// Uncork releases one Cork and flushes what the keys queued meanwhile.
func (d *Demux) Uncork() {
	if c, ok := d.inner.(drive.Corker); ok {
		c.Uncork()
	}
}

// Close closes the underlying endpoint, which stops the routing, waits
// for the pump if there is one, and closes every registered inbox. A
// driver waiting on an inbox wakes to its closed channel.
func (d *Demux) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		<-d.done
		return nil
	}
	d.closed = true
	d.mu.Unlock()

	err := d.inner.Close() // joins the endpoint's read loops, unblocks the pump
	<-d.done
	// No NewInbox can race here: closed is set, so the inbox set is
	// frozen, and with the routing stopped nothing puts to an inbox.
	for _, in := range d.inboxes {
		in.Close()
	}
	return err
}

// pump routes an endpoint's Recv, one message at a time.
func (d *Demux) pump() {
	defer close(d.done)
	for env := range d.inner.Recv() {
		d.route(env.From, env.Msg)
	}
}

// route delivers one frame from server from: each keyed reply goes to
// the inbox slot its key is routed to, and a frame's consecutive replies
// for one inbox go in as one run.
func (d *Demux) route(from types.ProcID, frame wire.Message) {
	msgs := []wire.Message{frame}
	if b, ok := frame.(wire.Batch); ok {
		msgs = b.Msgs
	}
	self := d.inner.ID()
	var in *drive.Inbox // the inbox run is for
	var run *drive.Replies
	d.mu.RLock()
	defer d.mu.RUnlock()
	for _, m := range msgs {
		k, ok := m.(wire.Keyed)
		// Validate m, not the unboxed k: re-boxing would allocate on
		// every routed reply.
		if !ok || wire.Validate(m) != nil {
			continue // unkeyed or malformed traffic is dropped
		}
		s, ok := d.subs[k.Key]
		if !ok {
			continue // reply for a key this client never subscribed
		}
		dst := s.route.Load()
		if dst == nil {
			continue // no operation on the key is in flight; the reply is stale
		}
		if dst != in {
			if run != nil {
				_ = in.Put(run) // fails only once the inbox is closed
			}
			in, run = dst, drive.NewReplies()
		}
		run.Add(drive.Delivery{Slot: int(s.slot.Load()), Src: s,
			Env: wire.Envelope{From: from, To: self, Msg: k.Inner}})
	}
	if run != nil {
		_ = in.Put(run)
	}
}

// Sub is one key's routed subscription.
type Sub struct {
	key    string
	demux  *Demux
	handle any                         // the subscriber's per-key state (Subscribe's mk)
	route  atomic.Pointer[drive.Inbox] // the inbox replies go to, nil for none
	slot   atomic.Int64                // ... and their slot there
}

var (
	_ transport.Endpoint = (*Sub)(nil)
	_ transport.Flusher  = (*Sub)(nil)
	_ drive.Source       = (*Sub)(nil)
)

// Route sends the key's replies to slot i of in from now on; a nil in
// drops them. The slot is stored first, so a router that sees the new
// inbox sees the new slot: it can tag a reply with a stale slot only
// once the route has moved on, when the reply is stale anyway.
func (s *Sub) Route(in *drive.Inbox, i int) {
	s.slot.Store(int64(i))
	s.route.Store(in)
}

// Handle returns the subscription's handle (Subscribe's mk).
func (s *Sub) Handle() any { return s.handle }

func (s *Sub) ID() types.ProcID { return s.demux.inner.ID() }

func (s *Sub) Send(to types.ProcID, m wire.Message) error {
	return s.demux.inner.Send(to, wire.Keyed{Key: s.key, Inner: m})
}

// Recv is nil: replies go where Route points.
func (s *Sub) Recv() <-chan wire.Envelope { return nil }

// Flush implements transport.Flusher: the key's sends share the demux's
// one endpoint, so draining that (past any cork) drains them.
func (s *Sub) Flush() error { return s.demux.Flush() }

// Close detaches the key from the demux.
func (s *Sub) Close() error {
	s.demux.mu.Lock()
	if s.demux.subs[s.key] == s {
		delete(s.demux.subs, s.key)
	}
	s.demux.mu.Unlock()
	return nil
}

func validKey(key string) error {
	if key == "" {
		return fmt.Errorf("keyed: empty key")
	}
	if len(key) > wire.MaxKeyLen {
		return fmt.Errorf("keyed: key longer than %d bytes", wire.MaxKeyLen)
	}
	return nil
}
