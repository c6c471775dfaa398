package core

import (
	"fmt"

	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/storage"
	"luckystore/internal/transport"
	"luckystore/internal/types"
)

// Cluster wires S server automata, WritersN() writers and NumReaders
// readers over a network, owning every goroutine it starts. It is the
// unit the examples, tests and experiments operate on.
type Cluster struct {
	cfg     Config
	net     transport.Network
	sim     *simnet.Network // non-nil when the cluster built its own simnet
	runners []*node.Runner
	servers []node.Automaton // inner automata, for state inspection
	writers []*Writer
	readers []*Reader

	store    storage.Provider
	backends []storage.Backend // per server; nil when not durable
}

// ClusterOption configures a Cluster.
type ClusterOption func(*clusterOpts)

type clusterOpts struct {
	net       transport.Network
	sim       *simnet.Network
	automata  map[int]node.Automaton
	dontStart map[int]bool
	store     storage.Provider
}

// WithNetwork runs the cluster over an externally built network; the
// cluster still closes it on Close. Use this to keep a handle on a
// simnet for delay/hold control.
func WithNetwork(n transport.Network) ClusterOption {
	return func(o *clusterOpts) {
		o.net = n
		if s, ok := n.(*simnet.Network); ok {
			o.sim = s
		}
	}
}

// WithServerAutomaton substitutes the automaton of server i — the hook
// used to install Byzantine behaviors from internal/fault.
func WithServerAutomaton(i int, a node.Automaton) ClusterOption {
	return func(o *clusterOpts) { o.automata[i] = a }
}

// WithCrashedServer starts the cluster with server i already crashed
// (its runner never starts): an initially crash-faulty server.
func WithCrashedServer(i int) ClusterOption {
	return func(o *clusterOpts) { o.dontStart[i] = true }
}

// WithStorage gives every server a durable backend from the provider
// (one per server, named by server identity): state-mutating messages
// are logged and committed before their replies leave the server, any
// existing records are replayed into the automaton at startup, and
// RestartServer recovers from the backend instead of trusting what
// the dead process left in memory. Servers whose automata were
// substituted via WithServerAutomaton run without storage — a
// Byzantine automaton has no meaningful durable state.
func WithStorage(p storage.Provider) ClusterOption {
	return func(o *clusterOpts) { o.store = p }
}

// NewCluster builds and starts a cluster for cfg.
func NewCluster(cfg Config, opts ...ClusterOption) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := &clusterOpts{
		automata:  make(map[int]node.Automaton),
		dontStart: make(map[int]bool),
	}
	for _, opt := range opts {
		opt(o)
	}

	ids := make([]types.ProcID, 0, cfg.S()+cfg.NumReaders+cfg.WritersN())
	ids = append(ids, types.ServerIDs(cfg.S())...)
	ids = append(ids, types.WriterIDs(cfg.WritersN())...)
	ids = append(ids, types.ReaderIDs(cfg.NumReaders)...)

	c := &Cluster{cfg: cfg, store: o.store}
	if o.net != nil {
		c.net, c.sim = o.net, o.sim
	} else {
		sim, err := simnet.New(ids)
		if err != nil {
			return nil, fmt.Errorf("cluster network: %w", err)
		}
		c.net, c.sim = sim, sim
	}

	for i := 0; i < cfg.S(); i++ {
		ep, err := c.net.Endpoint(types.ServerID(i))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster server %d: %w", i, err)
		}
		a := o.automata[i]
		substituted := a != nil
		if a == nil {
			a = NewServer()
		}
		run := a
		var back storage.Backend
		if c.store != nil && !substituted {
			back, err = c.openAndRecover(i, a)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster server %d storage: %w", i, err)
			}
			run = storage.NewDurable(a, back, types.ServerID(i))
		}
		r := node.NewRunner(ep, run)
		c.servers = append(c.servers, a)
		c.backends = append(c.backends, back)
		c.runners = append(c.runners, r)
		if !o.dontStart[i] {
			r.Start()
		}
	}

	for i := 0; i < cfg.WritersN(); i++ {
		wid := types.WriterIDN(i)
		wep, err := c.net.Endpoint(wid)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster writer %s: %w", wid, err)
		}
		c.writers = append(c.writers, NewWriter(cfg, wid, wep))
	}

	for i := 0; i < cfg.NumReaders; i++ {
		rep, err := c.net.Endpoint(types.ReaderID(i))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster reader %d: %w", i, err)
		}
		c.readers = append(c.readers, NewReader(cfg, types.ReaderID(i), rep))
	}
	return c, nil
}

// openAndRecover opens server i's backend and replays whatever it
// already holds into a — on a fresh provider that is nothing; on a
// reopened data directory it is the pre-crash state.
func (c *Cluster) openAndRecover(i int, a node.Automaton) (storage.Backend, error) {
	back, err := c.store.Open(string(types.ServerID(i)))
	if err != nil {
		return nil, err
	}
	if _, err := storage.Recover(back, a); err != nil {
		back.Close()
		return nil, err
	}
	return back, nil
}

// ServerBackend returns server i's storage backend, nil when the
// cluster runs without WithStorage (or the automaton was substituted).
// Chaos deployments use it to arm injected disk faults.
func (c *Cluster) ServerBackend(i int) storage.Backend { return c.backends[i] }

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Writer returns the canonical writer client (writer 0): the only one
// in single-writer deployments.
func (c *Cluster) Writer() *Writer { return c.writers[0] }

// WriterN returns the i-th writer client; NumWriters gives the count.
func (c *Cluster) WriterN(i int) *Writer { return c.writers[i] }

// NumWriters returns the number of writer clients the cluster runs.
func (c *Cluster) NumWriters() int { return len(c.writers) }

// Reader returns the i-th reader client.
func (c *Cluster) Reader(i int) *Reader { return c.readers[i] }

// Sim returns the underlying simulated network, or nil when the
// cluster runs on another transport.
func (c *Cluster) Sim() *simnet.Network { return c.sim }

// ServerAutomaton returns the automaton of server i (for state
// assertions in tests; a *Server unless substituted).
func (c *Cluster) ServerAutomaton(i int) node.Automaton { return c.servers[i] }

// CrashServer crash-stops server i. It is idempotent.
func (c *Cluster) CrashServer(i int) { c.runners[i].Crash() }

// CrashServerAfterSteps schedules server i to crash after n more
// processed messages.
func (c *Cluster) CrashServerAfterSteps(i, n int) { c.runners[i].CrashAfterSteps(n) }

// RestartServer restarts server i's message pump after a crash — the
// crash-recovery-with-stable-storage transition, so the restarted
// server is merely slow, not faulty, in the model's terms. What
// "stable storage" means depends on how the cluster was built: with a
// WithStorage backend, a fresh automaton is rebuilt by replaying the
// server's WAL (the in-memory state died with the crash, exactly as a
// real process death would lose it); without one — the default — the
// automaton object is simply kept across the restart, which models
// stable storage only for in-process crashes. Messages sent while the
// server was down that are still queued in its inbox are processed
// after the restart (they were "in transit").
//
// Restart methods are for use by one coordinating goroutine (a test or
// a chaos schedule); they do not synchronize with each other.
func (c *Cluster) RestartServer(i int) error {
	if i < 0 || i >= len(c.servers) {
		return fmt.Errorf("cluster restart: server %d out of range [0,%d)", i, len(c.servers))
	}
	if c.backends[i] == nil {
		return c.restart(i, c.servers[i], c.servers[i])
	}
	a := NewServer()
	if _, err := storage.Recover(c.backends[i], a); err != nil {
		return fmt.Errorf("cluster restart server %d: %w", i, err)
	}
	return c.restart(i, a, storage.NewDurable(a, c.backends[i], types.ServerID(i)))
}

// RestartServerFresh restarts server i with a brand-new automaton AND
// a wiped backend: a crash-recovery with NO stable storage — the only
// amnesiac path. An amnesiac server answers protocol-correctly from
// initial state, which the model can only classify as Byzantine —
// schedules must count fresh-restarted servers against b.
func (c *Cluster) RestartServerFresh(i int) error {
	if i < 0 || i >= len(c.servers) {
		return fmt.Errorf("cluster restart: server %d out of range [0,%d)", i, len(c.servers))
	}
	a := NewServer()
	if c.backends[i] == nil {
		return c.restart(i, a, a)
	}
	if err := c.backends[i].Wipe(); err != nil {
		return fmt.Errorf("cluster fresh-restart server %d: %w", i, err)
	}
	return c.restart(i, a, storage.NewDurable(a, c.backends[i], types.ServerID(i)))
}

// SwapServerAutomaton crash-stops server i and brings it back running
// the given automaton — the hook chaos schedules use to turn a correct
// server Byzantine (an internal/fault behavior) mid-run. The swapped-in
// automaton runs without storage; the server's backend is left intact,
// so a later RestartServer recovers the last correct durable state.
func (c *Cluster) SwapServerAutomaton(i int, a node.Automaton) error { return c.restart(i, a, a) }

// restart replaces server i's runner: inner is what tests inspect via
// ServerAutomaton, run is what the runner actually steps (a Durable
// wrapper around inner when the server is disk-backed).
func (c *Cluster) restart(i int, inner, run node.Automaton) error {
	if i < 0 || i >= len(c.runners) {
		return fmt.Errorf("cluster restart: server %d out of range [0,%d)", i, len(c.runners))
	}
	c.runners[i].Crash() // idempotent; joins the old pump
	ep, err := c.net.Endpoint(types.ServerID(i))
	if err != nil {
		return fmt.Errorf("cluster restart server %d: %w", i, err)
	}
	r := node.NewRunner(ep, run)
	c.servers[i] = inner
	c.runners[i] = r
	r.Start()
	return nil
}

// Close stops every server runner and shuts the network down, joining
// all goroutines the cluster started, then closes the storage
// backends (flushing anything pending).
func (c *Cluster) Close() {
	if c.net != nil {
		_ = c.net.Close() // closing endpoints unblocks every runner
	}
	for _, r := range c.runners {
		r.Stop()
	}
	for _, b := range c.backends {
		if b != nil {
			_ = b.Close()
		}
	}
}
