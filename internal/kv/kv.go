// Package kv is the multi-register layer: a key-value store in which
// every key is an independent atomic register of the lucky protocol,
// multiplexed over one set of 2t+b+1 servers via internal/keyed. Each
// key keeps the full per-register guarantees — atomicity, wait-freedom,
// one-round lucky operations — and atomicity composes across keys
// (linearizable objects are locally composable).
//
// A store speaks as cfg.WritersN() writer identities ("w", "w1", …)
// and cfg.NumReaders reader identities ("r0", …) over one set of
// servers, like core.Cluster. With one writer every key is SWMR; with
// more, any identity may Put any key (PutAs), per-key atomicity across
// them provided by the composite 〈seq, writer〉 stamps and the
// writers' stamp-query round.
//
// The engine is sharded and batched: every server runs its per-key
// automata across a pool of shard workers (a node.Runner over
// keyed.ShardedServer), so no global lock serializes independent keys.
// Blocking Put/Get stay the simple interface. Every operation — a lone
// Put or Get, a future, a batch — runs on one pooled driver that steps
// the per-key operations round by round from one goroutine with one
// inbox and one timer (internal/drive; batch.go assembles the batch),
// so each protocol round of a batch of N keys travels as one wire.Batch
// frame per server; PutAsync/GetAsync run a batch of one on a goroutine
// of their own and share frames only when their sends happen to collide
// in the coalescer.
package kv

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"luckystore/internal/core"
	"luckystore/internal/drive"
	"luckystore/internal/keyed"
	"luckystore/internal/metrics"
	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/storage"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = transport.ErrClosed

// DefaultShards is the per-server shard count used when WithShards is
// not given: one worker per CPU, capped — past the cap, scheduling
// overhead outweighs parallelism for register-sized work.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// Option configures Open (and, for WithMetrics, Connect and
// OpenWithEndpoints).
type Option func(*openOptions)

type openOptions struct {
	shards  int
	simOpts []simnet.Option
	store   storage.Provider
	metrics *metrics.Registry
}

// WithShards sets the number of shard workers each server runs its
// per-key automata on. Values below 1 mean DefaultShards.
func WithShards(n int) Option {
	return func(o *openOptions) { o.shards = n }
}

// WithSimOptions forwards options to the in-memory network Open builds.
func WithSimOptions(opts ...simnet.Option) Option {
	return func(o *openOptions) { o.simOpts = append(o.simOpts, opts...) }
}

// WithStorage gives every server a durable backend from the provider
// (one per server, named by server identity). Every shard of a server
// writes through the shared backend before acknowledging — the file
// backend's group commit batches the shards' concurrent fsyncs — and
// RestartServer rebuilds the whole keyed state by replaying the
// backend instead of trusting what the dead process left in memory.
// The provider's factory must produce keyed automata
// (kv.NewStorageAutomaton) so compaction and recovery route wire.Keyed
// records correctly.
func WithStorage(p storage.Provider) Option {
	return func(o *openOptions) { o.store = p }
}

// WithMetrics threads live instrumentation through every layer of the
// store into reg: per-key-class Put/Get latency at the API boundary,
// core writer/reader rounds and path counters (core.Metrics), server
// message counters, per-server queue depths, send-side coalescer batch
// widths, and — with WithStorage — WAL append/fsync latency and
// group-commit batch sizes. The hot path stays allocation-free
// (DESIGN.md §13); without this option every hook is a single nil
// pointer test.
func WithMetrics(reg *metrics.Registry) Option {
	return func(o *openOptions) { o.metrics = reg }
}

// Store is a running multi-register deployment plus its clients: one
// role per client identity it speaks as — cfg.WritersN() writers, then
// cfg.NumReaders readers — each role one coalesced endpoint, its demux
// and its pool of operation drivers. Put, PutMeta, ForwardPut, PutBatch
// and PutAsync write through writer 0; PutAs and PutMetaAs name the
// writer.
//
// Handle lookup takes no store-wide lock on the hot path: a role's
// per-key handles ride on the role's demux subscriptions, found by one
// map lookup under the demux's read lock, so concurrent Put/Get on
// existing keys never wait on each other.
// openMu serializes only the cold path — subscribing a key with a
// demux on a role's first operation on it — for every role alike, and
// closed is an atomic flag checked there; operations racing Close are
// cut off by their drivers' inboxes closing under them, which surfaces
// ErrClosed.
//
// The embedded fleet carries the servers' fault hooks (CrashServer,
// RestartServer, RestartServerFresh, SwapServerAutomaton, …): a server
// crashes as a whole — every register and shard on it at once. A store
// over servers managed elsewhere (Connect, OpenWithEndpoints) has no
// fleet: its hooks, the crash hooks included, return an error and its
// accessors zero values.
type Store struct {
	*core.Servers // nil when the servers are managed externally

	cfg    core.Config
	shards int
	sim    *simnet.Network

	met *StoreMetrics // nil when uninstrumented

	writers []*role // writers[w] speaks as types.WriterIDN(w)
	readers []*role // readers[i] speaks as types.ReaderID(i)

	openMu  sync.Mutex // cold path: first-use handle creation
	handles uint64     // handles made, for the next one's seq; under openMu
	closed  atomic.Bool

	closeOnce sync.Once
}

// handle is one key's client of one role — a *core.Writer or a
// *core.Reader — and the lock that serializes its operations (one
// operation at a time per identity and key) while different keys run
// concurrently. sub is the key's routed subscription the client sends
// through, which carries the handle; the driver holding mu routes its
// replies.
type handle struct {
	drive.Op
	mu  sync.Mutex
	sub *keyed.Sub
	seq uint64 // the handle's place in the order batches lock handles in
}

// Open builds and starts a store for cfg on an in-memory network: its
// servers, then a client per identity the store speaks as (Connect).
func Open(cfg core.Config, opts ...Option) (*Store, error) {
	st, o, err := newStore(cfg, opts)
	if err != nil {
		return nil, err
	}
	st.shards = o.shards
	if st.shards < 1 {
		st.shards = DefaultShards()
	}
	ids := append(types.ServerIDs(cfg.S()), types.WriterIDs(cfg.WritersN())...)
	if st.sim, err = simnet.New(append(ids, types.ReaderIDs(cfg.NumReaders)...), o.simOpts...); err != nil {
		return nil, err
	}
	var sm *core.ServerMetrics
	var dm *storage.DurableMetrics
	prov := o.store
	if o.metrics != nil {
		sm = core.NewServerMetrics(o.metrics)
		dm = storage.NewDurableMetrics(o.metrics)
		if prov != nil {
			prov = meteredProvider{prov, o.metrics}
		}
	}
	st.Servers, err = core.NewServers(core.Endpoints(st.sim), cfg.S(), func(int) (node.Automaton, []node.Automaton, func(wire.Message) int) {
		srv := NewShardedServerAutomatonInstrumented(st.shards, sm)
		return srv, srv.Shards(), srv.Route()
	}, prov, dm)
	if err != nil {
		return nil, fmt.Errorf("kv: %w", err)
	}
	if st.met != nil {
		for i := range cfg.S() {
			st.met.reg.GaugeFunc("lucky_kv_server_queue_depth",
				"Step jobs (runs) queued on a server's shard workers, not yet stepped.",
				func() int64 { return int64(st.QueueLen(i)) },
				metrics.L("server", string(types.ServerID(i))))
		}
	}
	if err := st.openRoles(cfg.WritersN(), st.sim.Endpoint); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// Connect builds a client-side store over servers managed elsewhere
// (e.g. a TCP cluster of ListenTCPKV servers). It asks dial for the
// endpoint of every identity the store speaks as, in this order: the
// writers w, w1, … w(W−1) for W = cfg.WritersN(), then the readers
// r0 … r(R−1). The store owns the endpoints and closes them on Close; if
// a dial fails, Connect closes every endpoint it already got and
// returns the error. Outbound traffic on every endpoint is coalesced
// into wire.Batch frames under concurrent multi-key load.
func Connect(cfg core.Config, dial func(types.ProcID) (transport.Endpoint, error), opts ...Option) (*Store, error) {
	return connect(cfg, cfg.WritersN(), dial, opts)
}

// OpenWithEndpoints is Connect over endpoints already dialed: one
// writer endpoint, speaking as "w", and exactly cfg.NumReaders reader
// endpoints, r0 … r(R−1). The store has one writer identity whatever
// cfg.Writers is. It takes ownership of the endpoints only when it
// returns a store.
func OpenWithEndpoints(cfg core.Config, writerEP transport.Endpoint, readerEPs []transport.Endpoint, opts ...Option) (*Store, error) {
	if len(readerEPs) != cfg.NumReaders {
		return nil, fmt.Errorf("kv: %d reader endpoints for NumReaders = %d", len(readerEPs), cfg.NumReaders)
	}
	eps := append([]transport.Endpoint{writerEP}, readerEPs...)
	return connect(cfg, 1, func(types.ProcID) (transport.Endpoint, error) {
		ep := eps[0]
		eps = eps[1:]
		return ep, nil
	}, opts)
}

// connect is Connect with nw writer identities.
func connect(cfg core.Config, nw int, dial func(types.ProcID) (transport.Endpoint, error), opts []Option) (*Store, error) {
	st, _, err := newStore(cfg, opts)
	if err != nil {
		return nil, err
	}
	if err := st.openRoles(nw, dial); err != nil {
		return nil, err
	}
	return st, nil
}

// newStore validates cfg and applies opts: a store without servers or
// clients yet.
func newStore(cfg core.Config, opts []Option) (*Store, openOptions, error) {
	if err := cfg.Validate(); err != nil {
		return nil, openOptions{}, err
	}
	o := apply(opts)
	st := &Store{cfg: cfg}
	if o.metrics != nil {
		st.cfg.Metrics = core.NewMetrics(o.metrics)
		st.met = newStoreMetrics(o.metrics)
	}
	return st, o, nil
}

// apply folds opts into one set of options.
func apply(opts []Option) openOptions {
	var o openOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// openRoles dials the store's roles — nw writers, then cfg.NumReaders
// readers, in Connect's order — closing the endpoints it already got
// when a dial fails.
func (s *Store) openRoles(nw int, dial func(types.ProcID) (transport.Endpoint, error)) error {
	ids := append(types.WriterIDs(nw), types.ReaderIDs(s.cfg.NumReaders)...)
	eps := make([]transport.Endpoint, 0, len(ids))
	for _, id := range ids {
		ep, err := dial(id)
		if err != nil {
			for _, ep := range eps {
				_ = ep.Close()
			}
			return fmt.Errorf("kv: dial %s: %w", id, err)
		}
		eps = append(eps, ep)
	}
	for i, ep := range eps {
		if i < nw {
			s.writers = append(s.writers, s.newRole(ep, "writer"))
		} else {
			s.readers = append(s.readers, s.newRole(ep, "reader"))
		}
	}
	return nil
}

// newRole wraps ep in a send-side coalescer — instrumented under the
// label when the store carries metrics — and a demux with its pool of
// operation drivers.
func (s *Store) newRole(ep transport.Endpoint, label string) *role {
	c := transport.NewCoalescer(ep)
	if s.met != nil {
		c.SetMetrics(transport.NewCoalescerMetrics(s.met.reg, label))
	}
	return &role{d: keyed.NewDemux(c)}
}

// NewShardedServerAutomatonInstrumented returns the sharded keyed
// server a KV server process runs (tcpnet.ListenSharded, or the fleet
// Open assembles): per-register core automata split across n shards,
// routed by key, whose shards step in parallel, every register sharing
// sm (nil is allowed and leaves the hooks disabled). Values below 1
// mean DefaultShards.
func NewShardedServerAutomatonInstrumented(n int, sm *core.ServerMetrics) *keyed.ShardedServer {
	if n < 1 {
		n = DefaultShards()
	}
	return keyed.NewShardedServer(n, func() node.Automaton {
		srv := core.NewServer()
		srv.SetMetrics(sm)
		return srv
	})
}

// MetricsRegistry extracts the registry carried by a WithMetrics option
// in opts, nil if none. Transport assemblers (luckystore.OpenKVTCP)
// use it to instrument the endpoints their Connect dial returns.
func MetricsRegistry(opts ...Option) *metrics.Registry { return apply(opts).metrics }

// NewStorageAutomaton returns the automaton storage backends rebuild
// state into during compaction and recovery: a one-shard keyed server
// of core registers, stepped from the one replaying goroutine, that can
// snapshot itself. Pass it as the factory of storage.NewMemProvider /
// storage.NewDirProvider when opening a store (or TCP server) with
// durable storage.
func NewStorageAutomaton() storage.Automaton {
	return keyed.NewShardedServer(1, func() node.Automaton { return core.NewServer() })
}

// NumWriters reports the writer identities the store speaks as.
func (s *Store) NumWriters() int { return len(s.writers) }

// Config returns the store's configuration.
func (s *Store) Config() core.Config { return s.cfg }

// Shards reports the per-server shard worker count, or 0 when the
// servers are managed externally (Connect): their sharding is not this
// store's to know.
func (s *Store) Shards() int { return s.shards }

// Put writes value under key through writer 0. Puts to different keys
// may run concurrently; one identity's puts to one key are serialized.
func (s *Store) Put(key string, value types.Value) error { return s.PutAs(0, key, value) }

// PutAs writes value under key through writer identity w, in
// [0, NumWriters()). Distinct identities may Put the same key
// concurrently — per-key atomicity across them is the multi-writer
// protocol's job.
func (s *Store) PutAs(w int, key string, value types.Value) error {
	r, h, err := s.writerFor(w, key)
	if err != nil {
		return err
	}
	t0 := s.met.start()
	_, err = r.one(op{handle: h, key: key, val: value})
	if err == nil {
		s.met.observePut(key, t0)
	}
	return err
}

// PutMeta returns the write metadata of writer 0's last Put on key.
func (s *Store) PutMeta(key string) (core.WriteMeta, error) { return s.PutMetaAs(0, key) }

// PutMetaAs returns the write metadata of writer identity w's last Put
// on key (only meaningful after a successful Put). A key never Put
// returns the zero meta: inspecting metadata is a pure lookup and
// allocates no writer state for the key.
func (s *Store) PutMetaAs(w int, key string) (core.WriteMeta, error) {
	r, err := roleAt(s.writers, "writer", w)
	if err != nil {
		return core.WriteMeta{}, err
	}
	h, ok := r.d.Handle(key).(*handle)
	if !ok {
		return core.WriteMeta{}, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.Op.(*core.Writer).LastMeta(), nil
}

// ForwardPut installs an exact 〈ts, value〉 pair under key: the
// rebalance handoff primitive (internal/router). Unlike Put, which
// binds the next timestamp, ForwardPut replays a pair read from
// another cluster at its original timestamp, so the checker's per-key
// timestamp order is preserved across a migration. A pair at or below
// the key's current write timestamp is skipped (the handoff already
// happened, or a newer write landed here first); a bottom pair means
// the key was never written and there is nothing to carry over.
func (s *Store) ForwardPut(key string, last types.Tagged) error {
	if last.IsBottom() {
		return nil
	}
	r, h, err := s.writerFor(0, key)
	if err != nil {
		return err
	}
	_, err = r.one(op{handle: h, key: key, pair: last, forward: true})
	return err
}

// Flush blocks until every outbound message of every key — all writers
// and all readers — has been handed to the underlying transport, giving
// callers a deterministic drain point (the router flushes a cluster's
// store before retiring it at a rebalance boundary).
func (s *Store) Flush() error {
	var err error
	for _, r := range slices.Concat(s.writers, s.readers) {
		if e := r.d.Flush(); err == nil {
			err = e
		}
	}
	return err
}

// Get reads key through reader client idx. A key never written returns
// the initial pair 〈0,⊥〉.
func (s *Store) Get(idx int, key string) (types.Tagged, error) {
	r, h, err := s.readerFor(idx, key)
	if err != nil {
		return types.Tagged{}, err
	}
	t0 := s.met.start()
	o, err := r.one(op{handle: h, key: key})
	if err != nil {
		return types.Tagged{}, err
	}
	s.met.observeGet(key, t0)
	return o.got, nil
}

// GetMeta returns the read metadata of reader idx's last Get on key. A
// key the reader never Got returns the zero meta: like PutMeta, a pure
// lookup that opens no endpoint for the key.
func (s *Store) GetMeta(idx int, key string) (core.ReadMeta, error) {
	r, err := roleAt(s.readers, "reader", idx)
	if err != nil {
		return core.ReadMeta{}, err
	}
	h, ok := r.d.Handle(key).(*handle)
	if !ok {
		return core.ReadMeta{}, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.Op.(*core.Reader).LastMeta(), nil
}

// PutFuture is a pending asynchronous Put.
type PutFuture struct {
	done chan struct{}
	meta core.WriteMeta
	err  error
}

// Done returns a channel closed when the put has completed.
func (f *PutFuture) Done() <-chan struct{} { return f.done }

// Wait blocks until the put completes and returns its error.
func (f *PutFuture) Wait() error {
	<-f.done
	return f.err
}

// Meta blocks until the put completes and returns its write metadata
// (only meaningful when Wait returns nil).
func (f *PutFuture) Meta() core.WriteMeta {
	<-f.done
	return f.meta
}

// GetFuture is a pending asynchronous Get.
type GetFuture struct {
	done chan struct{}
	val  types.Tagged
	err  error
}

// Done returns a channel closed when the get has completed.
func (f *GetFuture) Done() <-chan struct{} { return f.done }

// Wait blocks until the get completes and returns its result.
func (f *GetFuture) Wait() (types.Tagged, error) {
	<-f.done
	return f.val, f.err
}

// PutAsync starts a Put through writer 0 — a batch of one — on a
// goroutine of its own and returns immediately with its future.
// Concurrent async puts to one key serialize in an unspecified order;
// puts to different keys run concurrently. Their messages share a wire.Batch
// frame only when their sends collide in the coalescer, which over
// loopback TCP they measurably do not (EXPERIMENTS.md: 32 of them left
// in frames 1.01 wide) — to send N keys in S frames, use PutBatch.
func (s *Store) PutAsync(key string, value types.Value) *PutFuture {
	f := &PutFuture{done: make(chan struct{})}
	r, h, err := s.writerFor(0, key)
	if err != nil {
		f.err = err
		close(f.done)
		return f
	}
	t0 := s.met.start()
	go func() {
		defer close(f.done)
		o, err := r.one(op{handle: h, key: key, val: value})
		f.err, f.meta = err, o.meta
		if err == nil {
			s.met.observeAsyncPut(t0)
		}
	}()
	return f
}

// GetAsync starts a Get through reader idx and returns immediately with
// its future.
func (s *Store) GetAsync(idx int, key string) *GetFuture {
	f := &GetFuture{done: make(chan struct{})}
	r, h, err := s.readerFor(idx, key)
	if err != nil {
		f.err = err
		close(f.done)
		return f
	}
	t0 := s.met.start()
	go func() {
		defer close(f.done)
		o, err := r.one(op{handle: h, key: key})
		f.val, f.err = o.got, err
		if err == nil {
			s.met.observeAsyncGet(t0)
		}
	}()
	return f
}

// meteredProvider instruments every backend it opens that supports it
// (the file backend, possibly under a fault wrapper that forwards the
// method).
type meteredProvider struct {
	storage.Provider
	reg *metrics.Registry
}

func (p meteredProvider) Open(name string) (storage.Backend, error) {
	back, err := p.Provider.Open(name)
	if fb, ok := back.(interface{ SetMetrics(*storage.FileMetrics) }); ok {
		fb.SetMetrics(storage.NewFileMetrics(p.reg))
	}
	return back, err
}

// Sim returns the underlying simulated network.
func (s *Store) Sim() *simnet.Network { return s.sim }

// Close stops every server and client, joining all goroutines. It is
// idempotent and safe to call concurrently; every call returns only
// once teardown has completed. Operations in flight when Close runs
// (including PutAsync/GetAsync futures) complete with ErrClosed — the
// demuxes close their drivers' inboxes under them — and operations
// started after Close fail fast with ErrClosed.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		for _, r := range slices.Concat(s.writers, s.readers) {
			_ = r.d.Close()
		}
		s.Servers.Close()
	})
}

// roleAt returns roles[i], or an error naming kind when i is out of
// range.
func roleAt(roles []*role, kind string, i int) (*role, error) {
	if i < 0 || i >= len(roles) {
		return nil, fmt.Errorf("kv: %s index %d out of range [0,%d)", kind, i, len(roles))
	}
	return roles[i], nil
}

// writerFor returns writer w's role and its handle for key. The hot path
// is one read-locked lookup (keyed.Demux.Handle); only the role's first
// Put of key takes the cold path (handleFor).
func (s *Store) writerFor(w int, key string) (*role, *handle, error) {
	r, err := roleAt(s.writers, "writer", w)
	if err != nil {
		return nil, nil, err
	}
	if h, ok := r.d.Handle(key).(*handle); ok {
		return r, h, nil
	}
	h, err := s.handleFor(r.d, key, func(sub *keyed.Sub) drive.Op {
		return core.NewWriter(s.cfg, types.WriterIDN(w), sub)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("kv writer %d for %q: %w", w, key, err)
	}
	return r, h, nil
}

// readerFor returns reader idx's role and its handle for key, by one
// read-locked lookup once the handle exists (see writerFor).
func (s *Store) readerFor(idx int, key string) (*role, *handle, error) {
	r, err := roleAt(s.readers, "reader", idx)
	if err != nil {
		return nil, nil, err
	}
	if h, ok := r.d.Handle(key).(*handle); ok {
		return r, h, nil
	}
	h, err := s.handleFor(r.d, key, func(sub *keyed.Sub) drive.Op {
		return core.NewReader(s.cfg, types.ReaderID(idx), sub)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("kv reader %d for %q: %w", idx, key, err)
	}
	return r, h, nil
}

// handleFor subscribes key with d, its handle's client made by client,
// and returns the handle — the one an earlier subscription made when
// another operation won the race to the key.
func (s *Store) handleFor(d *keyed.Demux, key string, client func(*keyed.Sub) drive.Op) (*handle, error) {
	s.openMu.Lock()
	defer s.openMu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	sub, err := d.Subscribe(key, func(sub *keyed.Sub) any {
		s.handles++
		return &handle{Op: client(sub), sub: sub, seq: s.handles}
	})
	if err != nil {
		return nil, err
	}
	return sub.Handle().(*handle), nil
}
