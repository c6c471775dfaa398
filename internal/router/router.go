// Package router implements horizontal scale-out for the lucky
// key-value store: N independent clusters — each a full 2t+b+1 quorum
// group with its own writer and readers — fronted by one client-side
// Router that maps every key to its owning cluster through a seeded
// consistent-hash ring (internal/ring).
//
// Each cluster stays a plain kv.Store, so the per-cluster machinery
// (zero-alloc codec, per-destination Coalescer, sharded stepping) is
// reused unchanged; the router adds only the placement layer. Batches
// split per destination cluster: PutBatch groups the keys by owning
// backend and hands each its share as one backend PutBatch, whose
// lock-step rounds leave as one frame per server.
//
// Live rebalancing works by ClusterMap epoch: AddCluster/RemoveCluster
// install a new ring under a bumped epoch, then migrate keys whose
// owner changed with a read-then-write-forward handoff (read the
// latest pair from the old owner, ForwardPut it at its exact timestamp
// on the new one). Safety argument in DESIGN.md §9: atomic reads are
// monotone, so the forwarded pair is at least as new as anything any
// client was ever returned; the per-key lock blocks that key's
// operations for the duration of its handoff; and ForwardPut skips
// pairs at or below the destination's write timestamp, so a handoff
// can never roll a register back.
package router

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/metrics"
	"luckystore/internal/ring"
	"luckystore/internal/types"
)

// ErrClosed is returned by operations on a closed router.
var ErrClosed = errors.New("router closed")

// Backend is one cluster as the router consumes it: the kv.Store
// surface the routing layer needs. *kv.Store implements it for both
// simnet (kv.Open) and TCP (kv.Connect) deployments. PutAs(0, …) is the
// backend's primary writer; identities up to NumWriters contend on the
// same registers.
type Backend interface {
	NumWriters() int
	PutAs(w int, key string, value types.Value) error
	PutMetaAs(w int, key string) (core.WriteMeta, error)
	Get(idx int, key string) (types.Tagged, error)
	GetMeta(idx int, key string) (core.ReadMeta, error)
	PutBatch(puts map[string]types.Value) error
	GetBatch(idx int, keys []string) (map[string]types.Tagged, error)
	ForwardPut(key string, last types.Tagged) error
	Flush() error
	Close()
}

var _ Backend = (*kv.Store)(nil)

// Options configures a Router.
type Options struct {
	// Seed seeds the consistent-hash ring. Every router and proxy
	// fronting the same fleet must use the same seed.
	Seed int64
	// Vnodes is the virtual-node count per cluster (0 means
	// ring.DefaultVnodes).
	Vnodes int
	// Readers is the reader-client count of every backend; Get indexes
	// below it route to the same reader on whichever cluster owns the
	// key.
	Readers int
	// Metrics, when non-nil, threads live instrumentation through the
	// routing layer into the registry: per-cluster op counts, the
	// routing epoch, and migration/handoff counters.
	Metrics *metrics.Registry
}

// state is the router's immutable routing epoch: swapped whole on every
// fleet change, read with one atomic load on the hot path.
type state struct {
	epoch   uint64
	ring    *ring.Ring
	active  map[ring.ClusterID]Backend
	retired map[ring.ClusterID]Backend
}

// keyState caches one key's placement. epoch says which routing epoch
// the placement was computed under; 0 means never placed. The RWMutex
// is the migration barrier: operations hold it shared for their whole
// backend call, a handoff holds it exclusively — so an in-flight
// operation never spans a migration of its key.
type keyState struct {
	mu      sync.RWMutex
	epoch   uint64
	cluster ring.ClusterID
}

// Router routes every operation to the cluster owning its key. It owns
// the backends: Close closes them all, including clusters retired by
// RemoveCluster (kept alive until then so lazily-migrated keys can
// still be handed off out of them).
type Router struct {
	opts Options
	met  *Metrics // nil when uninstrumented

	mu sync.Mutex // serializes fleet changes and Close
	st atomic.Pointer[state]

	keys sync.Map // key -> *keyState
}

// New builds a router over the given backends. The router takes
// ownership of every backend.
func New(opts Options, backends map[ring.ClusterID]Backend) (*Router, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("router: no backends")
	}
	ids := make([]ring.ClusterID, 0, len(backends))
	for id := range backends {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rg, err := ring.New(opts.Seed, opts.Vnodes, ids)
	if err != nil {
		return nil, err
	}
	active := make(map[ring.ClusterID]Backend, len(backends))
	for id, b := range backends {
		if b == nil {
			return nil, fmt.Errorf("router: nil backend for %s", id)
		}
		active[id] = b
	}
	r := &Router{opts: opts}
	r.st.Store(&state{
		epoch:   1,
		ring:    rg,
		active:  active,
		retired: map[ring.ClusterID]Backend{},
	})
	if opts.Metrics != nil {
		r.met = NewMetrics(opts.Metrics)
		opts.Metrics.GaugeFunc("lucky_router_epoch",
			"Current routing epoch (bumped by every fleet change; 0 after Close).",
			func() int64 { return int64(r.Epoch()) })
		opts.Metrics.GaugeFunc("lucky_router_clusters",
			"Active clusters in the ring.",
			func() int64 { return int64(len(r.Clusters())) })
	}
	return r, nil
}

// Epoch returns the current routing epoch (bumped by every fleet
// change), 0 after Close.
func (r *Router) Epoch() uint64 {
	if st := r.st.Load(); st != nil {
		return st.epoch
	}
	return 0
}

// Clusters returns the active cluster ids in sorted order.
func (r *Router) Clusters() []ring.ClusterID {
	st := r.st.Load()
	if st == nil {
		return nil
	}
	return st.ring.Clusters()
}

// NumReaders returns the per-cluster reader-client count.
func (r *Router) NumReaders() int { return r.opts.Readers }

// NumWriters reports how many contending writer identities are usable
// fleet-wide: the minimum over the active clusters' writer counts. A
// key may migrate to any cluster, so an identity is only usable if
// every cluster can serve it.
func (r *Router) NumWriters() int {
	st := r.st.Load()
	if st == nil {
		return 0
	}
	n := 0
	for _, b := range st.active {
		if nw := b.NumWriters(); n == 0 || nw < n {
			n = nw
		}
	}
	return max(n, 1)
}

// keyStateFor returns key's placement cache entry, creating it on
// first touch.
func (r *Router) keyStateFor(key string) *keyState {
	if v, ok := r.keys.Load(key); ok {
		return v.(*keyState)
	}
	v, _ := r.keys.LoadOrStore(key, &keyState{})
	return v.(*keyState)
}

// acquire resolves key's owning backend under the key's shared lock.
// On success the caller holds ks.mu.RLock and must RUnlock after its
// backend call; a stale placement is migrated (exclusively) first,
// then re-acquired.
func (r *Router) acquire(key string) (*keyState, Backend, error) {
	ks := r.keyStateFor(key)
	for {
		ks.mu.RLock()
		st := r.st.Load()
		if st == nil {
			ks.mu.RUnlock()
			return nil, nil, ErrClosed
		}
		if ks.epoch == st.epoch {
			return ks, st.active[ks.cluster], nil
		}
		ks.mu.RUnlock()
		ks.mu.Lock()
		err := r.migrateLocked(key, ks)
		ks.mu.Unlock()
		if err != nil {
			return nil, nil, err
		}
	}
}

// migrateLocked brings key's placement up to the current epoch; caller
// holds ks.mu exclusively. If the owner changed, the latest pair is
// read from the old cluster (active or retired) and forwarded to the
// new one at its exact timestamp before the placement is updated — the
// read-then-write-forward handoff.
func (r *Router) migrateLocked(key string, ks *keyState) error {
	st := r.st.Load()
	if st == nil {
		return ErrClosed
	}
	owner := st.ring.Lookup(key)
	if ks.epoch == 0 || ks.cluster == owner {
		ks.cluster = owner
		ks.epoch = st.epoch
		return nil
	}
	oldB := st.active[ks.cluster]
	if oldB == nil {
		oldB = st.retired[ks.cluster]
	}
	newB := st.active[owner]
	if newB == nil {
		return fmt.Errorf("router: no backend for owner %s of %q", owner, key)
	}
	if oldB != nil {
		last, err := oldB.Get(0, key)
		if err != nil {
			return fmt.Errorf("router: handoff read of %q from %s: %w", key, ks.cluster, err)
		}
		if err := newB.ForwardPut(key, last); err != nil {
			return fmt.Errorf("router: handoff write of %q to %s: %w", key, owner, err)
		}
	}
	r.met.migrated(oldB != nil)
	ks.cluster = owner
	ks.epoch = st.epoch
	return nil
}

// migrateAll eagerly migrates every key touched so far to the current
// epoch. Keys a concurrent sync.Map.Range misses — or keys first
// touched later — migrate lazily in acquire, which is why retired
// backends stay alive until Close.
func (r *Router) migrateAll() error {
	var errs []error
	r.keys.Range(func(k, v any) bool {
		ks := v.(*keyState)
		ks.mu.Lock()
		if err := r.migrateLocked(k.(string), ks); err != nil {
			errs = append(errs, err)
		}
		ks.mu.Unlock()
		return true
	})
	return errors.Join(errs...)
}

// AddCluster joins a new cluster to the fleet under the given id: the
// routing epoch is bumped, and every key whose owner becomes the new
// cluster is handed off to it. The router takes ownership of b. A
// retired id cannot be reused — placement history would be ambiguous.
func (r *Router) AddCluster(id ring.ClusterID, b Backend) error {
	if b == nil {
		return fmt.Errorf("router: nil backend for %s", id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st.Load()
	if st == nil {
		return ErrClosed
	}
	if _, ok := st.active[id]; ok {
		return fmt.Errorf("router: cluster %s already active", id)
	}
	if _, ok := st.retired[id]; ok {
		return fmt.Errorf("router: cluster id %s was retired and cannot be reused", id)
	}
	ids := append(append([]ring.ClusterID{}, st.ring.Clusters()...), id)
	rg, err := ring.New(r.opts.Seed, r.opts.Vnodes, ids)
	if err != nil {
		return err
	}
	active := make(map[ring.ClusterID]Backend, len(st.active)+1)
	for cid, cb := range st.active {
		active[cid] = cb
	}
	active[id] = b
	r.st.Store(&state{epoch: st.epoch + 1, ring: rg, active: active, retired: st.retired})
	return r.migrateAll()
}

// RemoveCluster retires a cluster: the epoch is bumped, every touched
// key it owned is handed off to its new owner, and the backend is
// flushed but kept open (and owned) until Close, so keys that migrate
// lazily later can still read their pair out of it. The last cluster
// cannot be removed.
func (r *Router) RemoveCluster(id ring.ClusterID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st.Load()
	if st == nil {
		return ErrClosed
	}
	b, ok := st.active[id]
	if !ok {
		return fmt.Errorf("router: cluster %s not active", id)
	}
	if len(st.active) == 1 {
		return fmt.Errorf("router: cannot remove the last cluster %s", id)
	}
	ids := make([]ring.ClusterID, 0, len(st.active)-1)
	for _, cid := range st.ring.Clusters() {
		if cid != id {
			ids = append(ids, cid)
		}
	}
	rg, err := ring.New(r.opts.Seed, r.opts.Vnodes, ids)
	if err != nil {
		return err
	}
	active := make(map[ring.ClusterID]Backend, len(ids))
	for cid, cb := range st.active {
		if cid != id {
			active[cid] = cb
		}
	}
	retired := make(map[ring.ClusterID]Backend, len(st.retired)+1)
	for cid, cb := range st.retired {
		retired[cid] = cb
	}
	retired[id] = b
	r.st.Store(&state{epoch: st.epoch + 1, ring: rg, active: active, retired: retired})
	err = r.migrateAll()
	if ferr := b.Flush(); err == nil {
		err = ferr
	}
	return err
}

// Put writes value under key through writer 0 of the owning cluster
// and returns the write's metadata. One identity's puts to one key are
// serialized; puts to different keys run concurrently even across
// clusters.
func (r *Router) Put(key string, value types.Value) (core.WriteMeta, error) {
	return r.PutAs(0, key, value)
}

// PutAs writes value under key through contending writer identity w of
// the owning cluster; PutAs(0, …) is Put. Distinct identities may run
// concurrently on the same key — the per-key migration lock is shared,
// so contending puts proceed in parallel while a handoff still excludes
// them all. Identity w must exist on every cluster (NumWriters).
func (r *Router) PutAs(w int, key string, value types.Value) (core.WriteMeta, error) {
	ks, b, err := r.acquire(key)
	if err != nil {
		return core.WriteMeta{}, err
	}
	defer ks.mu.RUnlock()
	r.met.put(ks.cluster)
	if err := b.PutAs(w, key, value); err != nil {
		return core.WriteMeta{}, err
	}
	return b.PutMetaAs(w, key)
}

// Get reads key through reader idx of the owning cluster.
func (r *Router) Get(idx int, key string) (types.Tagged, core.ReadMeta, error) {
	ks, b, err := r.acquire(key)
	if err != nil {
		return types.Tagged{}, core.ReadMeta{}, err
	}
	defer ks.mu.RUnlock()
	r.met.get(ks.cluster)
	v, err := b.Get(idx, key)
	if err != nil {
		return types.Tagged{}, core.ReadMeta{}, err
	}
	meta, err := b.GetMeta(idx, key)
	return v, meta, err
}

// PutBatch writes every entry, each cluster's share as one backend
// PutBatch — so a round of the keys one cluster owns leaves as one frame
// per server of that cluster — with the clusters' shares running
// concurrently. Every key's placement is held shared for the whole call,
// as a lone Put holds it. Like kv.PutBatch this is not a transaction;
// each key individually keeps its register guarantees.
func (r *Router) PutBatch(puts map[string]types.Value) error {
	shares := make(map[Backend]map[string]types.Value)
	held := make([]*keyState, 0, len(puts))
	var errs []error
	for key, value := range puts {
		ks, b, err := r.acquire(key)
		if err != nil {
			errs = append(errs, fmt.Errorf("put %q: %w", key, err))
			continue
		}
		held = append(held, ks)
		r.met.put(ks.cluster)
		if shares[b] == nil {
			shares[b] = make(map[string]types.Value)
		}
		shares[b][key] = value
	}
	errs = append(errs, eachShare(shares, func(b Backend, share map[string]types.Value) error {
		return b.PutBatch(share)
	})...)
	release(held)
	return errors.Join(errs...)
}

// GetBatch reads every key through reader idx of its owning cluster,
// each cluster's share as one backend GetBatch (see PutBatch). Keys
// never written map to the initial pair 〈0,⊥〉; on failures the
// successful subset is returned with an errors.Join of the failures.
func (r *Router) GetBatch(idx int, keys []string) (map[string]types.Tagged, error) {
	shares := make(map[Backend][]string)
	held := make([]*keyState, 0, len(keys))
	seen := make(map[string]bool, len(keys))
	var errs []error
	for _, key := range keys {
		// Dedup: a repeated key would re-RLock its own keyState, which
		// can deadlock against a waiting migration writer.
		if seen[key] {
			continue
		}
		seen[key] = true
		ks, b, err := r.acquire(key)
		if err != nil {
			errs = append(errs, fmt.Errorf("get %q: %w", key, err))
			continue
		}
		held = append(held, ks)
		r.met.get(ks.cluster)
		shares[b] = append(shares[b], key)
	}
	out := make(map[string]types.Tagged, len(held))
	var mu sync.Mutex
	errs = append(errs, eachShare(shares, func(b Backend, share []string) error {
		got, err := b.GetBatch(idx, share)
		mu.Lock()
		defer mu.Unlock()
		for k, v := range got {
			out[k] = v
		}
		return err
	})...)
	release(held)
	return out, errors.Join(errs...)
}

// eachShare runs do on every backend's share concurrently and returns
// the failures.
func eachShare[S any](shares map[Backend]S, do func(Backend, S) error) []error {
	errc := make(chan error, len(shares))
	for b, share := range shares {
		go func() { errc <- do(b, share) }()
	}
	var errs []error
	for range shares {
		if err := <-errc; err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// release drops the shared placement locks a batch took.
func release(held []*keyState) {
	for _, ks := range held {
		ks.mu.RUnlock()
	}
}

// Flush drains every active backend's outbound queues.
func (r *Router) Flush() error {
	st := r.st.Load()
	if st == nil {
		return ErrClosed
	}
	var errs []error
	for _, b := range st.active {
		if err := b.Flush(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close closes every backend, active and retired. Idempotent.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st.Swap(nil)
	if st == nil {
		return nil
	}
	for _, b := range st.active {
		b.Close()
	}
	for _, b := range st.retired {
		b.Close()
	}
	return nil
}
