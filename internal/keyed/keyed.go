// Package keyed multiplexes many independent registers over one set of
// servers: every protocol message travels wrapped in a wire.Keyed
// envelope naming its register, servers run one core automaton per key,
// and clients obtain per-key virtual endpoints from a demultiplexer.
//
// Each key is a completely independent SWMR atomic register with its
// own timestamp space and its own freezing state — the composition
// inherits the per-register guarantees (atomicity is compositional:
// linearizable objects compose).
package keyed

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"luckystore/internal/node"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Server routes keyed messages to one inner automaton per register,
// created on first use by the factory. It implements node.Automaton.
type Server struct {
	mu      sync.Mutex
	regs    map[string]node.Automaton
	factory func() node.Automaton
}

var (
	_ node.Automaton     = (*Server)(nil)
	_ node.AppendStepper = (*Server)(nil)
)

// NewServer creates a keyed server whose per-register automata come
// from factory (e.g. func() node.Automaton { return core.NewServer() }).
func NewServer(factory func() node.Automaton) *Server {
	return &Server{regs: make(map[string]node.Automaton), factory: factory}
}

// Regs reports the number of instantiated registers (for tests).
func (s *Server) Regs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.regs)
}

// Range calls fn for every instantiated register in sorted key order.
// The lock is held across the iteration: callers are offline tooling
// (luckyctl stamps) and tests inspecting a quiesced server, never the
// hot path.
func (s *Server) Range(fn func(key string, reg node.Automaton)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.regs))
	for k := range s.regs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, s.regs[k])
	}
}

// Step implements node.Automaton: unwrap, dispatch, re-wrap.
func (s *Server) Step(from types.ProcID, m wire.Message) []transport.Outgoing {
	return s.StepAppend(from, m, nil)
}

// StepAppend implements node.AppendStepper: the inner automaton appends
// its replies directly into out and the suffix is re-wrapped for the
// key in place — no intermediate slice per message.
func (s *Server) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	k, ok := m.(wire.Keyed)
	// Validate m, not the unboxed k: re-boxing would allocate per step.
	if !ok || wire.Validate(m) != nil {
		return out
	}
	s.mu.Lock()
	reg, exists := s.regs[k.Key]
	if !exists {
		reg = s.factory()
		s.regs[k.Key] = reg
	}
	s.mu.Unlock()
	return rewrapAppended(k.Key, out, node.StepInto(reg, from, k.Inner, out))
}

// rewrapAppended wraps the replies a keyed step appended past the
// caller's prefix back into the register's Keyed envelope.
func rewrapAppended(key string, prefix, out []transport.Outgoing) []transport.Outgoing {
	for i := len(prefix); i < len(out); i++ {
		out[i].Msg = wire.Keyed{Key: key, Inner: out[i].Msg}
	}
	return out
}

// Demux splits one client endpoint into per-key virtual endpoints: each
// Open(key) returns a transport.Endpoint that sends messages wrapped
// for that key and receives only that key's replies. Different keys can
// then run operations concurrently from one client process.
//
// A client that drives many keys from one goroutine subscribes them
// instead (Subscribe): a subscription has no inbox of its own, and its
// replies go to the Inbox slot it is routed to — the inbox of the
// driver running an operation on the key — and are dropped while it is
// routed nowhere.
//
// Subscriptions live in a sync.Map so the routing pump does a lock-free
// read per envelope; the mutex guards only the cold Open/Close paths,
// keeping reply routing off every other key's critical path under
// concurrent multi-key traffic.
type Demux struct {
	inner transport.Endpoint

	subs sync.Map // key string → *Sub

	mu      sync.Mutex // guards closed, inboxes and the subs/Close race; never taken by pump
	closed  bool
	inboxes []*Inbox // every inbox NewInbox made; Close closes them
	done    chan struct{}
}

// NewDemux wraps an endpoint and starts the routing pump. The demux
// takes ownership: closing the demux closes the endpoint.
func NewDemux(ep transport.Endpoint) *Demux {
	d := &Demux{
		inner: ep,
		done:  make(chan struct{}),
	}
	go d.pump()
	return d
}

// Open returns the virtual endpoint for key, with an inbox of its own.
// Opening the same key twice returns endpoints sharing one inbox;
// callers should hold one endpoint per key.
func (d *Demux) Open(key string) (transport.Endpoint, error) {
	s, err := d.subscribe(key, true)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Subscribe returns key's routed subscription: an endpoint whose sends
// are wrapped for key and whose replies go where Route points. Its Recv
// channel is nil. Subscribing a key twice returns the same subscription.
func (d *Demux) Subscribe(key string) (*Sub, error) {
	return d.subscribe(key, false)
}

func (d *Demux) subscribe(key string, inbox bool) (*Sub, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, transport.ErrClosed
	}
	if v, ok := d.subs.Load(key); ok {
		s := v.(*Sub)
		if (s.mbox != nil) != inbox {
			return nil, fmt.Errorf("keyed: %q is already open with the other kind of inbox", key)
		}
		return s, nil
	}
	s := &Sub{key: key, demux: d}
	if inbox {
		s.mbox = transport.NewMailbox()
	}
	d.subs.Store(key, s)
	return s, nil
}

// inboxBuffer is an Inbox's capacity: one round of a 32-key batch over
// S = 3 is 96 replies, and the pump waits on a full inbox.
const inboxBuffer = 128

// Inbox is the reply queue of a driver that runs operations on many
// keys from one goroutine: each key's subscription is routed to one
// slot of it (Sub.Route) while the driver holds an operation on the key.
// The pump waits on a full inbox rather than queue without bound, so a
// driver keeps receiving while any of its routes is set, and an idle
// inbox holds at most the one delivery the pump had in hand when the
// last route was cleared. Close closes it.
type Inbox struct {
	c chan Delivery
}

// Delivery is one reply routed into an Inbox: the slot and subscription
// it was routed for, and the reply itself. A driver that reuses an inbox
// checks the subscription — a slot's previous key may still have a reply
// under way.
type Delivery struct {
	Slot int
	Sub  *Sub
	Env  wire.Envelope
}

// NewInbox makes an inbox and registers it, so that Close wakes a driver
// waiting on it.
func (d *Demux) NewInbox() (*Inbox, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, transport.ErrClosed
	}
	in := &Inbox{c: make(chan Delivery, inboxBuffer)}
	d.inboxes = append(d.inboxes, in)
	return in, nil
}

// C returns the delivery channel; Close closes it.
func (in *Inbox) C() <-chan Delivery { return in.c }

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

// corker is the send-side cork of the endpoint a Demux wraps
// (transport.Coalescer has it).
type corker interface {
	Cork()
	Uncork()
}

// Cork holds back the sends of every key until the matching Uncork, so a
// caller driving many keys from one goroutine emits a protocol round as
// one frame per server. It forwards to the wrapped endpoint's cork and
// is a no-op over an endpoint that does not buffer sends.
func (d *Demux) Cork() {
	if c, ok := d.inner.(corker); ok {
		c.Cork()
	}
}

// Uncork releases one Cork and flushes what the keys queued meanwhile.
func (d *Demux) Uncork() {
	if c, ok := d.inner.(corker); ok {
		c.Uncork()
	}
}

// Close stops the pump, closes every per-key inbox, every registered
// Inbox and the underlying endpoint, and waits for the pump goroutine to
// exit. A driver waiting on an inbox wakes to its closed channel.
func (d *Demux) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		<-d.done
		return nil
	}
	d.closed = true
	d.mu.Unlock()

	err := d.inner.Close() // unblocks the pump
	<-d.done
	// No Open or NewInbox can race here: closed is set, so the
	// subscription and inbox sets are frozen, and with the pump gone
	// nothing sends to an inbox any more.
	for _, in := range d.inboxes {
		close(in.c)
	}
	d.subs.Range(func(_, v any) bool {
		if s := v.(*Sub); s.mbox != nil {
			s.mbox.Close()
		}
		return true
	})
	return err
}

func (d *Demux) pump() {
	defer close(d.done)
	for env := range d.inner.Recv() {
		k, ok := env.Msg.(wire.Keyed)
		// Validate env.Msg, not the unboxed k: re-boxing would allocate
		// on every routed reply.
		if !ok || wire.Validate(env.Msg) != nil {
			continue // unkeyed or malformed traffic is dropped
		}
		v, ok := d.subs.Load(k.Key) // lock-free: no cross-key contention
		if !ok {
			continue // reply for a key this client never opened
		}
		s := v.(*Sub)
		reply := wire.Envelope{From: env.From, To: env.To, Msg: k.Inner}
		if s.mbox != nil {
			_ = s.mbox.Put(reply)
		} else if in := s.route.Load(); in != nil {
			in.c <- Delivery{Slot: int(s.slot.Load()), Sub: s, Env: reply}
		}
		// else: no operation on the key is in flight; the reply is stale
	}
}

// Sub is one key's virtual endpoint: Open's, with an inbox of its own,
// or Subscribe's, routed.
type Sub struct {
	key   string
	demux *Demux
	mbox  *transport.Mailbox    // Open's inbox; nil for a routed subscription
	route atomic.Pointer[Inbox] // a routed subscription's inbox, nil for none
	slot  atomic.Int64          // ... and its slot there
}

var (
	_ transport.Endpoint = (*Sub)(nil)
	_ transport.Flusher  = (*Sub)(nil)
)

// Route sends the key's replies to slot i of in from now on; a nil in
// drops them. The slot is stored first, so a pump that sees the new
// inbox sees the new slot: it can tag a reply with a stale slot only
// once the route has moved on, when the reply is stale anyway.
func (s *Sub) Route(in *Inbox, i int) {
	s.slot.Store(int64(i))
	s.route.Store(in)
}

func (s *Sub) ID() types.ProcID { return s.demux.inner.ID() }

func (s *Sub) Send(to types.ProcID, m wire.Message) error {
	return s.demux.inner.Send(to, wire.Keyed{Key: s.key, Inner: m})
}

// Recv returns Open's inbox; a routed subscription's is nil.
func (s *Sub) Recv() <-chan wire.Envelope {
	if s.mbox == nil {
		return nil
	}
	return s.mbox.Out()
}

// Flush implements transport.Flusher: the key's sends share the demux's
// one endpoint, so draining that (past any cork) drains them.
func (s *Sub) Flush() error { return s.demux.Flush() }

// Close detaches the key from the demux.
func (s *Sub) Close() error {
	s.demux.mu.Lock()
	if v, ok := s.demux.subs.Load(s.key); ok && v.(*Sub) == s {
		s.demux.subs.Delete(s.key)
	}
	s.demux.mu.Unlock()
	if s.mbox != nil {
		s.mbox.Close()
	}
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
