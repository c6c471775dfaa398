package core

import (
	"fmt"
	"maps"
	"slices"

	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/storage"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Deployment is the one simnet register deployment: S servers, writer
// clients and reader clients over one network, owning every goroutine
// it starts. W and R are the clients a protocol's deployment runs —
// core's, a variant's, or raw endpoints for hand-scripted runs. Its
// embedded fleet carries the servers' fault hooks.
type Deployment[W, R any] struct {
	*Servers
	sim     *simnet.Network // the network when it is a simnet
	writers []W
	readers []R
}

// Deploy starts s servers, server i made by server(i) — again on every
// restart that needs fresh state — and writing through store's
// backends when store is not nil; then writers writer and readers
// reader clients, each made by newWriter or newReader from its process
// id and endpoint. A nil net runs them on a new simnet built with
// simOpts.
func Deploy[W, R any](net transport.Network, simOpts []simnet.Option, s int, server func(i int) node.Automaton, store storage.Provider,
	writers int, newWriter func(types.ProcID, transport.Endpoint) W,
	readers int, newReader func(types.ProcID, transport.Endpoint) R) (*Deployment[W, R], error) {
	ids := slices.Concat(types.ServerIDs(s), types.WriterIDs(writers), types.ReaderIDs(readers))
	if net == nil {
		sim, err := simnet.New(ids, simOpts...)
		if err != nil {
			return nil, fmt.Errorf("network: %w", err)
		}
		net = sim
	}
	d := &Deployment[W, R]{}
	d.sim, _ = net.(*simnet.Network)
	var err error
	if d.Servers, err = NewServers(Endpoints(net), s, func(i int) (node.Automaton, []node.Automaton, func(wire.Message) int) {
		return server(i), nil, nil
	}, store, nil); err != nil {
		return nil, err
	}
	for _, id := range ids[s:] {
		ep, err := net.Endpoint(id)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("client %s: %w", id, err)
		}
		if id.IsWriter() {
			d.writers = append(d.writers, newWriter(id, ep))
		} else {
			d.readers = append(d.readers, newReader(id, ep))
		}
	}
	return d, nil
}

// Writer returns the canonical writer client (writer 0): the only one
// in single-writer deployments.
func (d *Deployment[W, R]) Writer() W { return d.writers[0] }

// WriterN returns the i-th writer client; NumWriters gives the count.
func (d *Deployment[W, R]) WriterN(i int) W { return d.writers[i] }

// NumWriters returns the number of writer clients.
func (d *Deployment[W, R]) NumWriters() int { return len(d.writers) }

// Reader returns the i-th reader client; NumReaders gives the count.
func (d *Deployment[W, R]) Reader(i int) R { return d.readers[i] }

// NumReaders returns the number of reader clients.
func (d *Deployment[W, R]) NumReaders() int { return len(d.readers) }

// Sim returns the underlying simulated network, or nil when the
// deployment runs on another transport.
func (d *Deployment[W, R]) Sim() *simnet.Network { return d.sim }

// Cluster is the core protocol's deployment: S = 2t + b + 1 server
// automata, Config.WritersN() writers and NumReaders readers. It is the
// unit the examples, tests and experiments operate on.
type Cluster struct {
	*Deployment[*Writer, *Reader]
	cfg Config
}

// ClusterOption configures a Cluster.
type ClusterOption func(*clusterOpts)

type clusterOpts struct {
	net      transport.Network
	automata map[int]node.Automaton
	crashed  []int
	store    storage.Provider
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
// (before any client operation): an initially crash-faulty server.
func WithCrashedServer(i int) ClusterOption {
	return func(o *clusterOpts) { o.crashed = append(o.crashed, i) }
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

// NewCluster builds and starts a cluster for cfg. An option naming a
// server outside [0, S) is an error, not a no-op: a fault that never
// lands would make the run it configures pass vacuously.
func NewCluster(cfg Config, opts ...ClusterOption) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := &clusterOpts{automata: make(map[int]node.Automaton)}
	for _, opt := range opts {
		opt(o)
	}
	for _, i := range slices.Concat(slices.Collect(maps.Keys(o.automata)), o.crashed) {
		if i < 0 || i >= cfg.S() {
			return nil, fmt.Errorf("cluster: server %d out of range [0,%d)", i, cfg.S())
		}
	}
	d, err := Deploy(o.net, nil, cfg.S(), func(i int) node.Automaton {
		if a := o.automata[i]; a != nil {
			delete(o.automata, i) // substituted once: a fresh restart installs a correct server
			return a
		}
		return NewServer()
	}, o.store,
		cfg.WritersN(), func(id types.ProcID, ep transport.Endpoint) *Writer { return NewWriter(cfg, id, ep) },
		cfg.NumReaders, func(id types.ProcID, ep transport.Endpoint) *Reader { return NewReader(cfg, id, ep) })
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	for _, i := range o.crashed {
		d.CrashServer(i)
	}
	return &Cluster{d, cfg}, nil
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }
