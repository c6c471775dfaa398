package workload

// The Driver interface decouples workload generation from the
// deployment it runs against: the same operation mix (and the same
// chaos schedule) drives the core simnet cluster, the sharded KV
// engine, the loopback-TCP KV deployment, and the protocol variants.
//
// The contract mirrors the model: one writer (per key — SWMR), a fixed
// set of reader clients, and per-operation metadata for round-trip
// accounting. A Driver's Write for one key must not be called
// concurrently with itself, and Read must not be called concurrently
// for the same reader index; the workloads in this package respect
// both by construction (one goroutine per writer key, one per reader).
//
// Deployments configured with multiple writer identities additionally
// implement MultiWriter: WriteAs(w, …) routes a write through writer w,
// and distinct w values MAY be called concurrently — even on the same
// key. Contending writes bind totally ordered ⟨seq, writer⟩ stamps.

import (
	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/regular"
	"luckystore/internal/router"
	"luckystore/internal/twophase"
	"luckystore/internal/types"
)

// DefaultKey is the register multi-key drivers use when a workload is
// single-register in spirit (Mixed): keyed transports
// reject the empty key, so "k0" stands in for "the one register".
const DefaultKey = "k0"

// OpMeta is the per-operation round accounting every driver reports.
type OpMeta struct {
	Rounds int
	Fast   bool
	// Spec reports a write that completed on the speculative
	// multi-writer fast path (no stamp-query round, DESIGN.md §12).
	Spec bool
	// Ghost is the stamp of a speculative pre-write attempt that was
	// NACKed or starved and abandoned mid-operation, zero when none.
	// Workloads must record it as a failed write in checker histories:
	// the abandoned pair can linger on servers and concurrent reads may
	// legitimately return it.
	Ghost types.Stamp
}

// Driver abstracts a running deployment for workload generation.
type Driver interface {
	// NumReaders reports how many reader clients the deployment has.
	NumReaders() int
	// MultiKey reports whether the deployment exposes independent
	// registers by key. Single-register drivers ignore the key
	// arguments, and workloads collapse the key set to {""} for them.
	MultiKey() bool
	// Write stores v under key through the deployment's writer and
	// returns the 〈stamp, value〉 pair the write bound. On error the
	// pair is unspecified and recorded with a zero stamp.
	Write(key string, v types.Value) (types.Tagged, OpMeta, error)
	// Read reads key through reader client r.
	Read(r int, key string) (types.Tagged, OpMeta, error)
}

// MultiWriter is the optional capability of deployments that expose
// more than one writer identity. WriteAs(0, …) is the deployment's
// primary writer (identical to Write); WriteAs(w, …) for w ≥ 1 routes
// through the w-th contending writer. Calls with distinct w values may
// run concurrently, including on the same key — that is the point.
type MultiWriter interface {
	// NumWriters reports how many writer identities the deployment has.
	NumWriters() int
	// WriteAs stores v under key through writer w.
	WriteAs(w int, key string, v types.Value) (types.Tagged, OpMeta, error)
}

// ClusterDriver drives a core single-register cluster.
type ClusterDriver struct{ C *core.Cluster }

// NumReaders implements Driver.
func (d ClusterDriver) NumReaders() int { return d.C.Config().NumReaders }

// MultiKey implements Driver.
func (d ClusterDriver) MultiKey() bool { return false }

// Write implements Driver.
func (d ClusterDriver) Write(key string, v types.Value) (types.Tagged, OpMeta, error) {
	return d.WriteAs(0, key, v)
}

// NumWriters implements MultiWriter.
func (d ClusterDriver) NumWriters() int { return d.C.NumWriters() }

// WriteAs implements MultiWriter.
func (d ClusterDriver) WriteAs(w int, _ string, v types.Value) (types.Tagged, OpMeta, error) {
	wr := d.C.WriterN(w)
	if err := wr.Write(v); err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	m := wr.LastMeta()
	return m.Value(v), OpMeta{Rounds: m.Rounds, Fast: m.Fast, Spec: m.Spec, Ghost: m.Ghost}, nil
}

// Read implements Driver.
func (d ClusterDriver) Read(r int, _ string) (types.Tagged, OpMeta, error) {
	got, err := d.C.Reader(r).Read()
	if err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	m := d.C.Reader(r).LastMeta()
	return got, OpMeta{Rounds: m.Rounds(), Fast: m.Fast()}, nil
}

// KVDriver drives a multi-register kv.Store — both the in-memory
// sharded engine (kv.Open) and a TCP deployment's client store
// (kv.Connect / luckystore.OpenKVTCP). Its writer identities are the
// store's: WriteAs(w) writes through the store's writer w (PutAs), of
// the cfg.Writers the store was opened with.
type KVDriver struct{ S *kv.Store }

// NumReaders implements Driver.
func (d KVDriver) NumReaders() int { return d.S.Config().NumReaders }

// MultiKey implements Driver.
func (d KVDriver) MultiKey() bool { return true }

// Write implements Driver.
func (d KVDriver) Write(key string, v types.Value) (types.Tagged, OpMeta, error) {
	return d.WriteAs(0, key, v)
}

// NumWriters implements MultiWriter.
func (d KVDriver) NumWriters() int { return d.S.NumWriters() }

// WriteAs implements MultiWriter.
func (d KVDriver) WriteAs(w int, key string, v types.Value) (types.Tagged, OpMeta, error) {
	if err := d.S.PutAs(w, key, v); err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	m, err := d.S.PutMetaAs(w, key)
	if err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	return m.Value(v), OpMeta{Rounds: m.Rounds, Fast: m.Fast, Spec: m.Spec, Ghost: m.Ghost}, nil
}

// Read implements Driver.
func (d KVDriver) Read(r int, key string) (types.Tagged, OpMeta, error) {
	got, err := d.S.Get(r, key)
	if err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	m, err := d.S.GetMeta(r, key)
	if err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	return got, OpMeta{Rounds: m.Rounds(), Fast: m.Fast()}, nil
}

// RouterDriver drives a scale-out fleet through its router: every
// operation routes to the cluster owning its key, so the same
// workloads (and chaos schedules) exercise placement, per-cluster
// coalescing, and live rebalancing.
type RouterDriver struct{ R *router.Router }

// NumReaders implements Driver.
func (d RouterDriver) NumReaders() int { return d.R.NumReaders() }

// MultiKey implements Driver.
func (d RouterDriver) MultiKey() bool { return true }

// Write implements Driver.
func (d RouterDriver) Write(key string, v types.Value) (types.Tagged, OpMeta, error) {
	m, err := d.R.Put(key, v)
	if err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	return m.Value(v), OpMeta{Rounds: m.Rounds, Fast: m.Fast, Spec: m.Spec, Ghost: m.Ghost}, nil
}

// NumWriters implements MultiWriter: the fleet-wide usable identity
// count (minimum over clusters).
func (d RouterDriver) NumWriters() int { return d.R.NumWriters() }

// WriteAs implements MultiWriter via the router's writer-identity map.
func (d RouterDriver) WriteAs(w int, key string, v types.Value) (types.Tagged, OpMeta, error) {
	m, err := d.R.PutAs(w, key, v)
	if err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	return m.Value(v), OpMeta{Rounds: m.Rounds, Fast: m.Fast, Spec: m.Spec, Ghost: m.Ghost}, nil
}

// Read implements Driver.
func (d RouterDriver) Read(r int, key string) (types.Tagged, OpMeta, error) {
	got, m, err := d.R.Get(r, key)
	if err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	return got, OpMeta{Rounds: m.Rounds(), Fast: m.Fast()}, nil
}

// RegularDriver drives an Appendix D regular-variant cluster. Its
// histories satisfy regularity, not atomicity — check them with
// checker.CheckRegularity.
type RegularDriver struct{ C *regular.Cluster }

// NumReaders implements Driver.
func (d RegularDriver) NumReaders() int { return d.C.Config().NumReaders }

// MultiKey implements Driver.
func (d RegularDriver) MultiKey() bool { return false }

// Write implements Driver.
func (d RegularDriver) Write(_ string, v types.Value) (types.Tagged, OpMeta, error) {
	if err := d.C.Writer().Write(v); err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	m := d.C.Writer().LastMeta()
	return m.Value(v), OpMeta{Rounds: m.Rounds, Fast: m.Fast}, nil
}

// Read implements Driver.
func (d RegularDriver) Read(r int, _ string) (types.Tagged, OpMeta, error) {
	got, err := d.C.Reader(r).Read()
	if err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	m := d.C.Reader(r).LastMeta()
	return got, OpMeta{Rounds: m.Rounds(), Fast: m.Fast()}, nil
}

// TwoPhaseDriver drives an Appendix C two-phase cluster. The variant's
// writer does not expose per-operation metadata, but it assigns
// timestamps 1, 2, 3, … in invocation order and every WRITE takes
// exactly two round-trips, so the driver tracks both itself.
type TwoPhaseDriver struct {
	C *twophase.Cluster
	// ts mirrors the writer's internal timestamp; the driver must own
	// all writes for the count to stay in sync (SWMR guarantees it).
	ts types.TS
}

// NumReaders implements Driver.
func (d *TwoPhaseDriver) NumReaders() int { return d.C.Config().NumReaders }

// MultiKey implements Driver.
func (d *TwoPhaseDriver) MultiKey() bool { return false }

// Write implements Driver.
func (d *TwoPhaseDriver) Write(_ string, v types.Value) (types.Tagged, OpMeta, error) {
	d.ts++ // the writer advances its timestamp on every attempt
	if err := d.C.Writer().Write(v); err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	return types.Tagged{TS: d.ts, Val: v}, OpMeta{Rounds: d.C.Writer().Rounds(), Fast: false}, nil
}

// Read implements Driver.
func (d *TwoPhaseDriver) Read(r int, _ string) (types.Tagged, OpMeta, error) {
	got, err := d.C.Reader(r).Read()
	if err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	m := d.C.Reader(r).LastMeta()
	return got, OpMeta{Rounds: m.Rounds(), Fast: m.Fast()}, nil
}
