// Package simnet implements the in-memory simulated network used by the
// test suite, the experiments and the benchmarks.
//
// It models the paper's system assumptions directly (Section 2):
//
//   - point-to-point reliable channels: a sent message is never lost and
//     senders never block on receivers (unbounded mailboxes);
//   - asynchrony: per-link delivery delays are controllable, and any
//     link can be held — its messages stay "in transit" until released —
//     which is how the indistinguishability runs of Figures 4 and 5 are
//     scripted;
//   - synchrony: with the default (small, bounded) delay, every message
//     between correct processes arrives within a known bound, which is
//     what makes operations lucky.
//
// The network also counts messages per link and kind so experiments can
// report message complexity alongside round-trip complexity.
package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// link identifies a directed sender→receiver channel.
type link struct {
	from, to types.ProcID
}

// Network is an in-memory transport.Network. The zero value is not
// usable; create networks with New.
type Network struct {
	mu           sync.Mutex
	endpoints    map[types.ProcID]*endpoint
	defaultDelay time.Duration
	linkDelay    map[link]time.Duration
	held         map[link][]wire.Envelope // non-nil value marks a held link
	cut          map[link]bool            // held-link subset owned by SetPartition
	faults       map[link]LinkFaults      // probabilistic drop/duplicate/jitter
	rng          *rand.Rand               // fault RNG, guarded by mu
	timers       map[*time.Timer]struct{}
	counts       map[link]map[wire.Kind]int
	total        int
	dropped      int
	duplicated   int
	closed       bool
}

var _ transport.Network = (*Network)(nil)

// Option configures a Network.
type Option func(*Network)

// WithDefaultDelay sets the base one-way delivery delay for every link.
// The default is zero: messages are delivered as fast as the scheduler
// allows, modeling a well-behaved synchronous network.
func WithDefaultDelay(d time.Duration) Option {
	return func(n *Network) { n.defaultDelay = d }
}

// New creates a network with endpoints for each given process id.
func New(ids []types.ProcID, opts ...Option) (*Network, error) {
	n := &Network{
		endpoints: make(map[types.ProcID]*endpoint, len(ids)),
		linkDelay: make(map[link]time.Duration),
		held:      make(map[link][]wire.Envelope),
		cut:       make(map[link]bool),
		faults:    make(map[link]LinkFaults),
		rng:       rand.New(rand.NewSource(1)),
		timers:    make(map[*time.Timer]struct{}),
		counts:    make(map[link]map[wire.Kind]int),
	}
	for _, opt := range opts {
		opt(n)
	}
	for _, id := range ids {
		if !id.Valid() {
			return nil, fmt.Errorf("simnet: invalid process id %q", id)
		}
		if _, dup := n.endpoints[id]; dup {
			return nil, fmt.Errorf("simnet: duplicate process id %q", id)
		}
		n.endpoints[id] = &endpoint{id: id, net: n, mbox: transport.NewMailbox[wire.Envelope]()}
	}
	return n, nil
}

// Endpoint implements transport.Network.
func (n *Network) Endpoint(id types.ProcID) (transport.Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
	}
	ep, ok := n.endpoints[id]
	if !ok {
		return nil, fmt.Errorf("simnet endpoint %q: %w", id, transport.ErrUnknownPeer)
	}
	return ep, nil
}

// Close shuts the network down: pending delayed deliveries are
// cancelled, held backlogs are discarded (a Release after Close must
// not deliver into closed mailboxes, nor re-arm anything), and every
// endpoint's inbox is closed. Close blocks until all internal
// goroutines have exited.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	for t := range n.timers {
		t.Stop()
	}
	n.timers = map[*time.Timer]struct{}{}
	clear(n.held) // discard in-transit backlogs; Release is a no-op from here on
	clear(n.cut)
	clear(n.faults)
	eps := make([]*endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		ep.mbox.Close()
	}
	return nil
}

// SetLinkDelay overrides the one-way delivery delay on from→to.
func (n *Network) SetLinkDelay(from, to types.ProcID, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkDelay[link{from, to}] = d
}

// ClearLinkDelay removes a per-link override.
func (n *Network) ClearLinkDelay(from, to types.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.linkDelay, link{from, to})
}

// Hold suspends delivery on the directed link from→to. Messages sent
// while the link is held stay in transit (in order) until Release or
// Discard. Holding models the "due to asynchrony, all messages …
// remain in transit" steps of the proof runs.
//
// Hold claims the link even if a partition already cut it: healing the
// partition then leaves the user's hold in place (the ownership rule
// of SetPartition, in either order of Hold vs cut).
func (n *Network) Hold(from, to types.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := link{from, to}
	delete(n.cut, l)
	if _, already := n.held[l]; !already {
		n.held[l] = []wire.Envelope{}
	}
}

// HoldAllFrom suspends delivery on every link whose sender is id. Like
// Hold, it claims the links from any current partition.
func (n *Network) HoldAllFrom(id types.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for to := range n.endpoints {
		l := link{id, to}
		delete(n.cut, l)
		if _, already := n.held[l]; !already {
			n.held[l] = []wire.Envelope{}
		}
	}
}

// HoldAllTo suspends delivery on every link whose receiver is id. Like
// Hold, it claims the links from any current partition.
func (n *Network) HoldAllTo(id types.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for from := range n.endpoints {
		l := link{from, id}
		delete(n.cut, l)
		if _, already := n.held[l]; !already {
			n.held[l] = []wire.Envelope{}
		}
	}
}

// Release resumes delivery on from→to, delivering held messages in
// their original send order. On a closed network Release is a no-op:
// Close already discarded every backlog, and nothing may be delivered
// into closed mailboxes.
func (n *Network) Release(from, to types.ProcID) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	l := link{from, to}
	backlog, washeld := n.held[l]
	delete(n.held, l)
	delete(n.cut, l)
	var target *endpoint
	if washeld {
		target = n.endpoints[to]
	}
	n.mu.Unlock()
	if target == nil {
		return
	}
	for _, env := range backlog {
		// Receiver may have closed; reliable channels tolerate that only
		// via crash.
		deliver(target.mbox, env)
	}
}

// deliver puts an envelope into an inbox, unwrapping batches at the
// endpoint boundary: a held or delayed batch travels (and is counted)
// as one frame, but the receiving process only ever sees the inner
// messages, in their batch order. The common non-batch case stays
// allocation-free.
func deliver(mbox *transport.Mailbox[wire.Envelope], env wire.Envelope) {
	if _, ok := env.Msg.(wire.Batch); !ok {
		_ = mbox.Put(env)
		return
	}
	for _, e := range wire.Expand(env) {
		_ = mbox.Put(e)
	}
}

// ReleaseAll resumes delivery on every held link. Like Release, it is
// a no-op on a closed network.
func (n *Network) ReleaseAll() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	links := make([]link, 0, len(n.held))
	for l := range n.held {
		links = append(links, l)
	}
	n.mu.Unlock()
	for _, l := range links {
		n.Release(l.from, l.to)
	}
}

// Discard drops the backlog of a held link and resumes delivery. In the
// model this corresponds to a run in which the held messages were sent
// by (or to) a process that crashed, so they are never received within
// the run under construction.
func (n *Network) Discard(from, to types.ProcID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.held, link{from, to})
	delete(n.cut, link{from, to})
}

// HeldCount reports how many messages are currently in transit on a
// held link.
func (n *Network) HeldCount(from, to types.ProcID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.held[link{from, to}])
}

// Stats is a snapshot of per-link, per-kind message counts.
type Stats struct {
	Total      int
	Dropped    int // frames lost to LinkFaults.Drop
	Duplicated int // frames delivered twice by LinkFaults.Duplicate
	ByKind     map[wire.Kind]int
}

// StatsSnapshot returns aggregate message counts since creation.
func (n *Network) StatsSnapshot() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := Stats{Total: n.total, Dropped: n.dropped, Duplicated: n.duplicated, ByKind: make(map[wire.Kind]int)}
	for _, kinds := range n.counts {
		for k, c := range kinds {
			s.ByKind[k] += c
		}
	}
	return s
}

// route is called by endpoints to deliver a message.
func (n *Network) route(from, to types.ProcID, m wire.Message) error {
	env := wire.Envelope{From: from, To: to, Msg: m}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return transport.ErrClosed
	}
	target, ok := n.endpoints[to]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("simnet route to %q: %w", to, transport.ErrUnknownPeer)
	}
	l := link{from, to}
	n.total++ // frames, not inner messages: a batch costs one send
	kinds := n.counts[l]
	if kinds == nil {
		kinds = make(map[wire.Kind]int)
		n.counts[l] = kinds
	}
	// Per-kind stats count the protocol messages inside a batch, so
	// experiments measuring message complexity see through batching.
	if m != nil {
		if b, ok := m.(wire.Batch); ok {
			for _, inner := range b.Msgs {
				if inner != nil {
					kinds[inner.Kind()]++
				}
			}
		} else {
			kinds[m.Kind()]++
		}
	}
	// Probabilistic link faults (SetLinkFaults): decide drop, duplicate
	// and jitter under the seeded fault RNG before the hold check, so a
	// lossy link stays lossy while partitioned.
	copies := 1
	var jitter time.Duration
	if f, ok := n.faults[l]; ok {
		if f.Drop > 0 && n.rng.Float64() < f.Drop {
			n.dropped++
			n.mu.Unlock()
			return nil
		}
		if f.Duplicate > 0 && n.rng.Float64() < f.Duplicate {
			copies = 2
			n.duplicated++
		}
		if f.JitterMax > 0 {
			jitter = time.Duration(n.rng.Int63n(int64(f.JitterMax)))
		}
	}
	if backlog, heldNow := n.held[l]; heldNow {
		for c := 0; c < copies; c++ {
			backlog = append(backlog, env)
		}
		n.held[l] = backlog
		n.mu.Unlock()
		return nil
	}
	delay := n.defaultDelay
	if d, ok := n.linkDelay[l]; ok {
		delay = d
	}
	delay += jitter
	if delay <= 0 {
		n.mu.Unlock()
		for c := 0; c < copies; c++ {
			deliver(target.mbox, env)
		}
		return nil
	}
	for c := 0; c < copies; c++ {
		n.scheduleLocked(l, target, env, delay)
	}
	n.mu.Unlock()
	return nil
}

// scheduleLocked arms a delivery timer for one envelope. Callers hold
// n.mu.
func (n *Network) scheduleLocked(l link, target *endpoint, env wire.Envelope, delay time.Duration) {
	var timer *time.Timer
	timer = time.AfterFunc(delay, func() {
		n.mu.Lock()
		delete(n.timers, timer)
		closed := n.closed
		// The link may have been held after the message was scheduled;
		// a held link must not leak messages around the hold.
		if backlog, heldNow := n.held[l]; heldNow && !closed {
			n.held[l] = append(backlog, env)
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()
		if closed {
			return
		}
		deliver(target.mbox, env)
	})
	n.timers[timer] = struct{}{}
}

// endpoint is a process's attachment to the network.
type endpoint struct {
	id   types.ProcID
	net  *Network
	mbox *transport.Mailbox[wire.Envelope]

	mu     sync.Mutex
	closed bool
}

var _ transport.Endpoint = (*endpoint)(nil)

func (e *endpoint) ID() types.ProcID { return e.id }

func (e *endpoint) Send(to types.ProcID, m wire.Message) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return transport.ErrClosed
	}
	return e.net.route(e.id, to, m)
}

func (e *endpoint) Recv() <-chan wire.Envelope { return e.mbox.Out() }

// Close detaches the process: it can no longer send, and its inbox
// channel is closed. Close is idempotent.
func (e *endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.mbox.Close()
	return nil
}
