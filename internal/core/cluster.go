package core

import (
	"fmt"

	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/storage"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Cluster wires S server automata, WritersN() writers and NumReaders
// readers over a network, owning every goroutine it starts. It is the
// unit the examples, tests and experiments operate on. Its embedded
// fleet carries the servers' fault hooks.
type Cluster struct {
	*Servers
	cfg     Config
	sim     *simnet.Network // the network when it is a simnet
	writers []*Writer
	readers []*Reader
}

// ClusterOption configures a Cluster.
type ClusterOption func(*clusterOpts)

type clusterOpts struct {
	net       transport.Network
	automata  map[int]node.Automaton
	dontStart map[int]bool
	store     storage.Provider
}

// WithNetwork runs the cluster over an externally built network; the
// cluster still closes it on Close. Use this to keep a handle on a
// simnet for delay/hold control.
func WithNetwork(n transport.Network) ClusterOption {
	return func(o *clusterOpts) { o.net = n }
}

// WithServerAutomaton substitutes the automaton of server i — the hook
// used to install Byzantine behaviors from internal/fault.
func WithServerAutomaton(i int, a node.Automaton) ClusterOption {
	return func(o *clusterOpts) { o.automata[i] = a }
}

// WithCrashedServer starts the cluster with server i already crashed
// (before any client exists): an initially crash-faulty server.
func WithCrashedServer(i int) ClusterOption {
	return func(o *clusterOpts) { o.dontStart[i] = true }
}

// WithStorage gives every server a durable backend from the provider
// (one per server, named by server identity): state-mutating messages
// are logged and committed before their replies leave the server, any
// existing records are replayed into the automaton at startup, and
// RestartServer recovers from the backend instead of trusting what
// the dead process left in memory. A substituted automaton that
// cannot snapshot itself (every internal/fault behavior) runs without
// storage — a Byzantine automaton has no meaningful durable state.
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

	net := o.net
	if net == nil {
		sim, err := simnet.New(ids)
		if err != nil {
			return nil, fmt.Errorf("cluster network: %w", err)
		}
		net = sim
	}
	srvs, err := NewServers(net, cfg.S(), func(i int) (node.Automaton, []node.Automaton, func(wire.Message) int) {
		if a := o.automata[i]; a != nil {
			delete(o.automata, i) // substituted once: a fresh restart installs a correct server
			return a, nil, nil
		}
		return NewServer(), nil, nil
	}, o.store, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c := &Cluster{Servers: srvs, cfg: cfg}
	c.sim, _ = net.(*simnet.Network)
	for i := range o.dontStart {
		if i >= 0 && i < cfg.S() {
			c.CrashServer(i)
		}
	}

	for i := 0; i < cfg.WritersN(); i++ {
		wid := types.WriterIDN(i)
		wep, err := net.Endpoint(wid)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster writer %s: %w", wid, err)
		}
		c.writers = append(c.writers, NewWriter(cfg, wid, wep))
	}

	for i := 0; i < cfg.NumReaders; i++ {
		rep, err := net.Endpoint(types.ReaderID(i))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("cluster reader %d: %w", i, err)
		}
		c.readers = append(c.readers, NewReader(cfg, types.ReaderID(i), rep))
	}
	return c, nil
}

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

// VariantCluster is a single-writer protocol variant's deployment over a
// simulated network: S servers, its writer client and its readers. Its
// embedded fleet carries the servers' fault hooks.
type VariantCluster[W, R any] struct {
	*Servers
	sim     *simnet.Network
	writer  W
	readers []R
}

// NewVariantCluster starts s servers made by mk — writing through
// store's backends, when store is not nil — and readers reader clients
// and a writer client on a new simnet, each client made from its
// endpoint by newWriter or newReader(i, ep).
func NewVariantCluster[W, R any](s, readers int, mk func() node.Automaton, store storage.Provider, simOpts []simnet.Option,
	newWriter func(ep transport.Endpoint) W, newReader func(i int, ep transport.Endpoint) R) (*VariantCluster[W, R], error) {
	ids := append(types.ServerIDs(s), types.WriterID())
	sim, err := simnet.New(append(ids, types.ReaderIDs(readers)...), simOpts...)
	if err != nil {
		return nil, err
	}
	c := &VariantCluster[W, R]{sim: sim}
	if c.Servers, err = NewServers(sim, s, func(int) (node.Automaton, []node.Automaton, func(wire.Message) int) {
		return mk(), nil, nil
	}, store, nil); err != nil {
		return nil, err
	}
	wep, err := sim.Endpoint(types.WriterID())
	if err != nil {
		c.Close()
		return nil, err
	}
	c.writer = newWriter(wep)
	for i := 0; i < readers; i++ {
		rep, err := sim.Endpoint(types.ReaderID(i))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.readers = append(c.readers, newReader(i, rep))
	}
	return c, nil
}

// Writer returns the writer client.
func (c *VariantCluster[W, R]) Writer() W { return c.writer }

// Reader returns the i-th reader client.
func (c *VariantCluster[W, R]) Reader(i int) R { return c.readers[i] }

// Sim returns the underlying simulated network.
func (c *VariantCluster[W, R]) Sim() *simnet.Network { return c.sim }
