// Package kv is the multi-register layer: a key-value store in which
// every key is an independent atomic register of the lucky protocol,
// multiplexed over one set of 2t+b+1 servers via internal/keyed. Each
// key keeps the full per-register guarantees — atomicity, wait-freedom,
// one-round lucky operations — and atomicity composes across keys
// (linearizable objects are locally composable).
//
// By default each key is SWMR: one Store owns the writer role for every
// key; readers are per-process handles. Multi-writer deployments open
// contending stores with distinct writer identities (WithContenders +
// OpenContender, or WithWriterID over TCP): every store may then Put
// any key, with per-key atomicity across stores provided by the
// composite 〈seq, writer〉 stamps and the writers' stamp-query round.
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

// Option configures Open (and, for the client-identity options,
// OpenWithEndpoints).
type Option func(*openOptions)

type openOptions struct {
	shards     int
	simOpts    []simnet.Option
	contenders int
	writerID   types.ProcID
	readerBase int
	store      storage.Provider
	metrics    *metrics.Registry
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

// WithContenders pre-registers n additional writer identities
// ("w1" … "wn") plus their reader id blocks on the store's network, so
// that up to n contending Stores can later be opened on the same
// keyspace with OpenContender. The identities must exist at Open time
// because the in-memory network's process set is fixed at construction.
// If cfg.Writers is below 1+n it is raised to match, putting every
// writer — the primary included — in multi-writer mode (stamp query
// round per Put).
func WithContenders(n int) Option {
	return func(o *openOptions) { o.contenders = n }
}

// WithWriterID sets the writer identity the store binds stamps under
// (default types.WriterID(), the canonical writer "w"). TCP contender
// clients use this with OpenWithEndpoints after dialing under the same
// identity.
func WithWriterID(id types.ProcID) Option {
	return func(o *openOptions) { o.writerID = id }
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

// WithReaderBase offsets the store's reader identities: local reader
// idx speaks as types.ReaderID(base+idx). Contending stores need
// disjoint reader ids — servers key the freezing machinery by reader
// process id, so two clients sharing "r0" would corrupt each other's
// slow reads.
func WithReaderBase(base int) Option {
	return func(o *openOptions) { o.readerBase = base }
}

// Store is a running multi-register deployment plus its clients.
//
// Handle lookup is lock-free on the hot path: a role's per-key handles
// ride on the role's demux subscriptions, found by one sync.Map load, so
// concurrent Put/Get on existing keys never contend on a store-wide lock.
// openMu serializes only the cold path — subscribing a key with the
// demux on its first operation — and closed is an atomic flag checked
// there; operations racing Close are cut off by their drivers' inboxes
// closing under them, which surfaces ErrClosed.
//
// The embedded fleet carries the servers' fault hooks (CrashServer,
// RestartServer, RestartServerFresh, SwapServerAutomaton, …): a server
// crashes as a whole — every register and shard on it at once. A store
// over external endpoints (OpenWithEndpoints) has no fleet, and its
// restart and swap hooks return an error.
type Store struct {
	*core.Servers // nil when the servers are managed externally

	cfg        core.Config
	shards     int
	sim        *simnet.Network
	contenders int          // contender identities pre-registered at Open
	writerID   types.ProcID // identity this store's writers bind stamps under
	readerBase int          // local reader idx speaks as ReaderID(readerBase+idx)

	met *StoreMetrics // nil when uninstrumented

	writerDemux   *keyed.Demux   // its subscriptions carry the writer handles
	readerDemuxs  []*keyed.Demux // ... each reader client's, its reader handles
	writerBatches *batches       // pooled operation drivers over writerDemux
	readerBatches []*batches     // ... and over each reader demux

	// adopted is the writer-identity map: contending stores attached
	// with AdoptContender, index k−1 holding identity "wk". It turns
	// this store into a single façade over every writer identity of its
	// cluster (PutAs/PutMetaAs), which is how fleet layers
	// (internal/router) route multi-writer traffic without tracking
	// contender stores themselves. Populated at assembly time, before
	// the store is shared — never mutated concurrently with operations.
	adopted []*Store

	openMu sync.Mutex // cold path: first-use handle creation
	closed atomic.Bool

	closeOnce sync.Once
}

// handle is one key's client of one role — a *core.Writer, or one
// reader client's *core.Reader — and the lock that serializes its
// operations (one writer per register, one operation at a time) while
// different keys run concurrently. sub is the key's routed subscription
// the client sends through, which carries the handle; the driver holding
// mu routes its replies.
type handle struct {
	drive.Op
	mu  sync.Mutex
	sub *keyed.Sub
}

// Open builds and starts a store for cfg on an in-memory network.
func Open(cfg core.Config, opts ...Option) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := openOptions{shards: DefaultShards()}
	for _, opt := range opts {
		opt(&o)
	}
	if o.shards < 1 {
		o.shards = DefaultShards()
	}
	if o.contenders < 0 {
		return nil, fmt.Errorf("kv: contenders = %d must be non-negative", o.contenders)
	}
	if o.contenders > 0 && cfg.Writers < o.contenders+1 {
		cfg.Writers = o.contenders + 1 // every writer must run the MW query round
	}
	ids := append(types.ServerIDs(cfg.S()), types.WriterIDs(o.contenders+1)...)
	ids = append(ids, types.ReaderIDs((o.contenders+1)*cfg.NumReaders)...)
	sim, err := simnet.New(ids, o.simOpts...)
	if err != nil {
		return nil, err
	}
	if o.metrics != nil {
		cfg.Metrics = core.NewMetrics(o.metrics)
	}
	st := &Store{
		cfg:        cfg,
		shards:     o.shards,
		sim:        sim,
		contenders: o.contenders,
		writerID:   types.WriterID(),
	}
	var sm *core.ServerMetrics
	var dm *storage.DurableMetrics
	prov := o.store
	if o.metrics != nil {
		st.met = newStoreMetrics(o.metrics)
		sm = core.NewServerMetrics(o.metrics)
		dm = storage.NewDurableMetrics(o.metrics)
		if prov != nil {
			prov = meteredProvider{prov, o.metrics}
		}
	}
	st.Servers, err = core.NewServers(sim, cfg.S(), func(int) (node.Automaton, []node.Automaton, func(wire.Message) int) {
		srv := NewShardedServerAutomatonInstrumented(o.shards, sm)
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
	wep, err := sim.Endpoint(types.WriterID())
	if err != nil {
		st.Close()
		return nil, err
	}
	readerEPs := make([]transport.Endpoint, cfg.NumReaders)
	for i := range readerEPs {
		if readerEPs[i], err = sim.Endpoint(types.ReaderID(i)); err != nil {
			st.Close()
			return nil, err
		}
	}
	st.openClients(wep, readerEPs)
	return st, nil
}

// openClients wraps the client endpoints in coalescers and demuxes, each
// demux with its pool of batches.
func (s *Store) openClients(writerEP transport.Endpoint, readerEPs []transport.Endpoint) {
	s.writerDemux = keyed.NewDemux(s.newCoalescer(writerEP, "writer"))
	s.writerBatches = &batches{d: s.writerDemux}
	for _, rep := range readerEPs {
		d := keyed.NewDemux(s.newCoalescer(rep, "reader"))
		s.readerDemuxs = append(s.readerDemuxs, d)
		s.readerBatches = append(s.readerBatches, &batches{d: d})
	}
}

// newCoalescer wraps ep in a send-side coalescer, instrumented under
// the given role label when the store carries metrics.
func (s *Store) newCoalescer(ep transport.Endpoint, role string) *transport.Coalescer {
	c := transport.NewCoalescer(ep)
	if s.met != nil {
		c.SetMetrics(transport.NewCoalescerMetrics(s.met.reg, role))
	}
	return c
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
// use it to instrument the endpoints they dial before handing them to
// OpenWithEndpoints.
func MetricsRegistry(opts ...Option) *metrics.Registry {
	var o openOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o.metrics
}

// NewStorageAutomaton returns the automaton storage backends rebuild
// state into during compaction and recovery: a one-shard keyed server
// of core registers, stepped from the one replaying goroutine, that can
// snapshot itself. Pass it as the factory of storage.NewMemProvider /
// storage.NewDirProvider when opening a store (or TCP server) with
// durable storage.
func NewStorageAutomaton() storage.Automaton {
	return keyed.NewShardedServer(1, func() node.Automaton { return core.NewServer() })
}

// OpenWithEndpoints builds a client-side store over externally provided
// endpoints (e.g. tcpnet clients dialed to a remote cluster): one
// writer endpoint and one endpoint per reader client. The store takes
// ownership of the endpoints and closes them on Close; the servers are
// managed externally. Outbound traffic on every endpoint is coalesced
// into wire.Batch frames under concurrent multi-key load.
//
// A contending client gives its store a distinct identity with
// WithWriterID and WithReaderBase — the endpoints must have been dialed
// under the matching process ids, and cfg.Writers must cover every
// contender so Puts run the multi-writer stamp query.
func OpenWithEndpoints(cfg core.Config, writerEP transport.Endpoint, readerEPs []transport.Endpoint, opts ...Option) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var o openOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.writerID == "" {
		o.writerID = types.WriterID()
	}
	if !o.writerID.IsWriter() {
		return nil, fmt.Errorf("kv: %q is not a writer id", o.writerID)
	}
	if o.readerBase < 0 {
		return nil, fmt.Errorf("kv: reader base = %d must be non-negative", o.readerBase)
	}
	if o.metrics != nil {
		cfg.Metrics = core.NewMetrics(o.metrics)
	}
	st := &Store{
		cfg:        cfg,
		writerID:   o.writerID,
		readerBase: o.readerBase,
	}
	if o.metrics != nil {
		st.met = newStoreMetrics(o.metrics)
	}
	st.openClients(writerEP, readerEPs)
	return st, nil
}

// OpenContender opens the k-th contending store (1 ≤ k ≤ the count
// given to WithContenders) on this store's network: a client-only
// Store whose writers bind stamps as "wk" and whose readers occupy the
// k-th reader id block. Both stores Put and Get the same keys — the
// same registers — concurrently; per-key atomicity across them is the
// multi-writer protocol's job. The contender owns its endpoints and
// must be Closed independently; it cannot crash or restart servers.
func (s *Store) OpenContender(k int) (*Store, error) {
	if s.sim == nil {
		return nil, fmt.Errorf("kv: contenders need the store that owns the network (Open)")
	}
	if k < 1 || k > s.contenders {
		return nil, fmt.Errorf("kv: contender %d out of range [1,%d] (pass WithContenders to Open)", k, s.contenders)
	}
	wep, err := s.sim.Endpoint(types.WriterIDN(k))
	if err != nil {
		return nil, fmt.Errorf("kv contender %d: %w", k, err)
	}
	readerEPs := make([]transport.Endpoint, s.cfg.NumReaders)
	for j := range readerEPs {
		rep, err := s.sim.Endpoint(types.ReaderID(k*s.cfg.NumReaders + j))
		if err != nil {
			return nil, fmt.Errorf("kv contender %d reader %d: %w", k, j, err)
		}
		readerEPs[j] = rep
	}
	copts := []Option{WithWriterID(types.WriterIDN(k)), WithReaderBase(k * s.cfg.NumReaders)}
	if s.met != nil {
		// Contender traffic lands in the same registry: the admin surface
		// sees the whole fleet, not just the primary identity.
		copts = append(copts, WithMetrics(s.met.reg))
	}
	return OpenWithEndpoints(s.cfg, wep, readerEPs, copts...)
}

// AdoptContender attaches a contending store — OpenContender's result,
// or a TCP client store dialed under a contender identity — to this
// store as its next writer identity, transferring ownership: Close
// closes adopted stores too. Contenders must be adopted in identity
// order ("w1", "w2", …); the store checks and refuses mismatches, so a
// fleet assembled out of order fails loudly at build time rather than
// binding stamps under the wrong identity. Adopt before sharing the
// store across goroutines — adoption is assembly, not an operation.
func (s *Store) AdoptContender(c *Store) error {
	k := len(s.adopted) + 1
	if want := types.WriterIDN(k); c.writerID != want {
		return fmt.Errorf("kv: adopting store with writer id %q as identity %d (want %q)", c.writerID, k, want)
	}
	s.adopted = append(s.adopted, c)
	return nil
}

// NumWriters reports the writer identities reachable through this
// store: itself plus every adopted contender.
func (s *Store) NumWriters() int { return 1 + len(s.adopted) }

// PutAs writes value under key through writer identity w: 0 is this
// store's own writer (identical to Put), w ≥ 1 the w-th adopted
// contender. Distinct identities may Put the same key concurrently —
// per-key atomicity across them is the multi-writer protocol's job.
func (s *Store) PutAs(w int, key string, value types.Value) error {
	st, err := s.writerStore(w)
	if err != nil {
		return err
	}
	return st.Put(key, value)
}

// PutMetaAs returns the metadata of writer identity w's last Put on
// key (see PutMeta).
func (s *Store) PutMetaAs(w int, key string) (core.WriteMeta, error) {
	st, err := s.writerStore(w)
	if err != nil {
		return core.WriteMeta{}, err
	}
	return st.PutMeta(key)
}

// writerStore resolves writer identity w to its backing store.
func (s *Store) writerStore(w int) (*Store, error) {
	if w == 0 {
		return s, nil
	}
	if w < 1 || w > len(s.adopted) {
		return nil, fmt.Errorf("kv: writer identity %d out of range [0,%d] (AdoptContender)", w, len(s.adopted))
	}
	return s.adopted[w-1], nil
}

// Config returns the store's configuration.
func (s *Store) Config() core.Config { return s.cfg }

// Shards reports the per-server shard worker count, or 0 when the
// servers are managed externally (OpenWithEndpoints): their sharding is
// not this store's to know.
func (s *Store) Shards() int { return s.shards }

// Put writes value under key. Puts to different keys may run
// concurrently; puts to one key are serialized (SWMR per register).
func (s *Store) Put(key string, value types.Value) error {
	h, err := s.writerFor(key)
	if err != nil {
		return err
	}
	t0 := s.met.start()
	_, err = s.writerBatches.one(op{handle: h, key: key, val: value})
	if err == nil {
		s.met.observePut(key, t0)
	}
	return err
}

// PutMeta returns the write metadata of the last Put on key (only
// meaningful after a successful Put). A key never Put returns the zero
// meta: inspecting metadata is a pure lookup and allocates no writer
// state for the key.
func (s *Store) PutMeta(key string) (core.WriteMeta, error) {
	h, ok := s.writerDemux.Handle(key).(*handle)
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
	h, err := s.writerFor(key)
	if err != nil {
		return err
	}
	_, err = s.writerBatches.one(op{handle: h, key: key, pair: last, forward: true})
	return err
}

// Flush blocks until every outbound message of every key — writer and
// all readers — has been handed to the underlying transport, giving
// callers a deterministic drain point (the router flushes a cluster's
// store before retiring it at a rebalance boundary).
func (s *Store) Flush() error {
	err := s.writerDemux.Flush()
	for _, d := range s.readerDemuxs {
		if e := d.Flush(); err == nil {
			err = e
		}
	}
	return err
}

// Get reads key through reader client idx. A key never written returns
// the initial pair 〈0,⊥〉.
func (s *Store) Get(idx int, key string) (types.Tagged, error) {
	h, err := s.readerFor(idx, key)
	if err != nil {
		return types.Tagged{}, err
	}
	t0 := s.met.start()
	o, err := s.readerBatches[idx].one(op{handle: h, key: key})
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
	if idx < 0 || idx >= len(s.readerDemuxs) {
		return core.ReadMeta{}, fmt.Errorf("kv: reader index %d out of range [0,%d)", idx, len(s.readerDemuxs))
	}
	h, ok := s.readerDemuxs[idx].Handle(key).(*handle)
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

// PutAsync starts a Put — a batch of one — on a goroutine of its own
// and returns immediately with its future. Concurrent async puts to one
// key serialize in an unspecified order (the register stays SWMR); puts to
// different keys run concurrently. Their messages share a wire.Batch
// frame only when their sends collide in the coalescer, which over
// loopback TCP they measurably do not (EXPERIMENTS.md: 32 of them left
// in frames 1.01 wide) — to send N keys in S frames, use PutBatch.
func (s *Store) PutAsync(key string, value types.Value) *PutFuture {
	f := &PutFuture{done: make(chan struct{})}
	h, err := s.writerFor(key)
	if err != nil {
		f.err = err
		close(f.done)
		return f
	}
	t0 := s.met.start()
	go func() {
		defer close(f.done)
		o, err := s.writerBatches.one(op{handle: h, key: key, val: value})
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
	h, err := s.readerFor(idx, key)
	if err != nil {
		f.err = err
		close(f.done)
		return f
	}
	t0 := s.met.start()
	go func() {
		defer close(f.done)
		o, err := s.readerBatches[idx].one(op{handle: h, key: key})
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
		if s.writerDemux != nil {
			_ = s.writerDemux.Close()
		}
		for _, d := range s.readerDemuxs {
			_ = d.Close()
		}
		s.Servers.Close()
		for _, c := range s.adopted {
			c.Close()
		}
	})
}

// writerFor returns key's writer handle. The hot path is one lock-free
// load; only a key's first Put takes the cold path (handleFor).
func (s *Store) writerFor(key string) (*handle, error) {
	if h, ok := s.writerDemux.Handle(key).(*handle); ok {
		return h, nil
	}
	h, err := s.handleFor(s.writerDemux, key, func(sub *keyed.Sub) drive.Op {
		return core.NewWriter(s.cfg, s.writerID, sub)
	})
	if err != nil {
		return nil, fmt.Errorf("kv writer for %q: %w", key, err)
	}
	return h, nil
}

// readerFor returns reader idx's handle for key, lock-free once the
// handle exists (see writerFor).
func (s *Store) readerFor(idx int, key string) (*handle, error) {
	if idx < 0 || idx >= len(s.readerDemuxs) {
		return nil, fmt.Errorf("kv: reader index %d out of range [0,%d)", idx, len(s.readerDemuxs))
	}
	if h, ok := s.readerDemuxs[idx].Handle(key).(*handle); ok {
		return h, nil
	}
	h, err := s.handleFor(s.readerDemuxs[idx], key, func(sub *keyed.Sub) drive.Op {
		return core.NewReader(s.cfg, types.ReaderID(s.readerBase+idx), sub)
	})
	if err != nil {
		return nil, fmt.Errorf("kv reader %d for %q: %w", idx, key, err)
	}
	return h, nil
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
		return &handle{Op: client(sub), sub: sub}
	})
	if err != nil {
		return nil, err
	}
	return sub.Handle().(*handle), nil
}
