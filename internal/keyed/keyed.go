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
// Subscriptions live in a sync.Map so the routing pump does a lock-free
// read per envelope; the mutex guards only the cold Open/Close paths,
// keeping reply routing off every other key's critical path under
// concurrent multi-key traffic.
type Demux struct {
	inner transport.Endpoint

	subs sync.Map // key string → *transport.Mailbox

	mu     sync.Mutex // guards closed and the subs/Close race; never taken by pump
	closed bool
	done   chan struct{}
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

// Open returns the virtual endpoint for key. Opening the same key twice
// returns endpoints sharing one inbox; callers should hold one endpoint
// per key.
func (d *Demux) Open(key string) (transport.Endpoint, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, transport.ErrClosed
	}
	var mbox *transport.Mailbox
	if v, ok := d.subs.Load(key); ok {
		mbox = v.(*transport.Mailbox)
	} else {
		mbox = transport.NewMailbox()
		d.subs.Store(key, mbox)
	}
	return &subEndpoint{key: key, demux: d, mbox: mbox}, nil
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

// Close stops the pump, closes every per-key inbox and the underlying
// endpoint, and waits for the pump goroutine to exit.
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
	// No Open can race here: closed is set, so the subscription set is
	// frozen and every inbox can be joined.
	d.subs.Range(func(_, v any) bool {
		v.(*transport.Mailbox).Close()
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
		_ = v.(*transport.Mailbox).Put(wire.Envelope{From: env.From, To: env.To, Msg: k.Inner})
	}
}

// subEndpoint is the per-key virtual endpoint.
type subEndpoint struct {
	key   string
	demux *Demux
	mbox  *transport.Mailbox
}

var (
	_ transport.Endpoint = (*subEndpoint)(nil)
	_ transport.Flusher  = (*subEndpoint)(nil)
)

func (s *subEndpoint) ID() types.ProcID { return s.demux.inner.ID() }

func (s *subEndpoint) Send(to types.ProcID, m wire.Message) error {
	return s.demux.inner.Send(to, wire.Keyed{Key: s.key, Inner: m})
}

func (s *subEndpoint) Recv() <-chan wire.Envelope { return s.mbox.Out() }

// Flush implements transport.Flusher: the key's sends share the demux's
// one endpoint, so draining that (past any cork) drains them.
func (s *subEndpoint) Flush() error { return s.demux.Flush() }

// Close detaches the key's inbox from the demux.
func (s *subEndpoint) Close() error {
	s.demux.mu.Lock()
	if v, ok := s.demux.subs.Load(s.key); ok && v.(*transport.Mailbox) == s.mbox {
		s.demux.subs.Delete(s.key)
	}
	s.demux.mu.Unlock()
	s.mbox.Close()
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
