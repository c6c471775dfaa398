package workload

// The Driver interface decouples workload generation from the
// deployment it runs against: the same operation mix (and the same
// chaos schedule) drives a single-register deployment — the core
// cluster or a protocol variant, through Register — the sharded KV
// engine, the loopback-TCP KV deployment and a routed fleet.
//
// The contract mirrors the model: NumWriters writer identities, a
// fixed set of reader clients, and per-operation metadata for
// round-trip accounting. Write(w, …) must not be called concurrently
// for the same writer and key, and Read must not be called
// concurrently for the same reader index; the workloads in this
// package respect both by construction (one goroutine per writer and
// key, one per reader). Distinct writers MAY write concurrently, even
// on the same key: contending writes bind totally ordered ⟨seq,
// writer⟩ stamps. A client index outside the deployment's range is an
// error naming it, never a panic.

import (
	"fmt"

	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/router"
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
	// NumWriters reports how many writer identities the deployment has.
	NumWriters() int
	// MultiKey reports whether the deployment exposes independent
	// registers by key. Single-register drivers ignore the key
	// arguments, and workloads collapse the key set to {""} for them.
	MultiKey() bool
	// Write stores v under key through writer w and returns the
	// 〈stamp, value〉 pair the write bound. On error the pair is
	// unspecified and recorded with a zero stamp.
	Write(w int, key string, v types.Value) (types.Tagged, OpMeta, error)
	// Read reads key through reader client r.
	Read(r int, key string) (types.Tagged, OpMeta, error)
}

// registerWriter is what Register needs of a writer client: every
// one reports the stamp it bound and the rounds it ran.
type registerWriter interface {
	Write(v types.Value) error
	LastMeta() core.WriteMeta
}

// registerReader is what Register needs of a reader client: every one
// reports its READs through core's meta.
type registerReader interface {
	Read() (types.Tagged, error)
	LastMeta() core.ReadMeta
}

// Register returns the driver of a single-register deployment: the
// core cluster's (c.Deployment), with its Config.Writers writer
// identities, or a protocol variant's.
func Register[W registerWriter, R registerReader](d *core.Deployment[W, R]) Driver {
	return register[W, R]{d}
}

// register is Register's driver.
type register[W registerWriter, R registerReader] struct {
	dep *core.Deployment[W, R]
}

func (d register[W, R]) NumReaders() int { return d.dep.NumReaders() }
func (d register[W, R]) NumWriters() int { return d.dep.NumWriters() }
func (d register[W, R]) MultiKey() bool  { return false }

func (d register[W, R]) Write(w int, _ string, v types.Value) (types.Tagged, OpMeta, error) {
	if err := inRange("writer", w, d.dep.NumWriters()); err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	wr := d.dep.WriterN(w)
	if err := wr.Write(v); err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	return written(wr.LastMeta(), v)
}

func (d register[W, R]) Read(r int, _ string) (types.Tagged, OpMeta, error) {
	if err := inRange("reader", r, d.dep.NumReaders()); err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	rd := d.dep.Reader(r)
	got, err := rd.Read()
	if err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	m := rd.LastMeta()
	return got, OpMeta{Rounds: m.Rounds(), Fast: m.Fast()}, nil
}

// written is a completed write's result: the pair m bound for v, and
// its round accounting.
func written(m core.WriteMeta, v types.Value) (types.Tagged, OpMeta, error) {
	return m.Value(v), OpMeta{Rounds: m.Rounds, Fast: m.Fast, Spec: m.Spec, Ghost: m.Ghost}, nil
}

// inRange checks client index i of a kind against its count n.
func inRange(kind string, i, n int) error {
	if i < 0 || i >= n {
		return fmt.Errorf("workload: %s index %d out of range [0,%d)", kind, i, n)
	}
	return nil
}

// KVDriver drives a multi-register kv.Store — both the in-memory
// sharded engine (kv.Open) and a TCP deployment's client store
// (kv.Connect / luckystore.OpenKVTCP). Its writer identities are the
// store's: Write(w, …) writes through the store's writer w (PutAs), of
// the cfg.Writers the store was opened with.
type KVDriver struct{ S *kv.Store }

// NumReaders implements Driver.
func (d KVDriver) NumReaders() int { return d.S.Config().NumReaders }

// MultiKey implements Driver.
func (d KVDriver) MultiKey() bool { return true }

// NumWriters implements Driver.
func (d KVDriver) NumWriters() int { return d.S.NumWriters() }

// Write implements Driver.
func (d KVDriver) Write(w int, key string, v types.Value) (types.Tagged, OpMeta, error) {
	if err := d.S.PutAs(w, key, v); err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	m, err := d.S.PutMetaAs(w, key)
	if err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	return written(m, v)
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

// NumWriters implements Driver: the fleet-wide usable identity count
// (minimum over clusters).
func (d RouterDriver) NumWriters() int { return d.R.NumWriters() }

// Write implements Driver via the router's writer-identity map.
func (d RouterDriver) Write(w int, key string, v types.Value) (types.Tagged, OpMeta, error) {
	m, err := d.R.PutAs(w, key, v)
	if err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	return written(m, v)
}

// Read implements Driver.
func (d RouterDriver) Read(r int, key string) (types.Tagged, OpMeta, error) {
	got, m, err := d.R.Get(r, key)
	if err != nil {
		return types.Tagged{}, OpMeta{}, err
	}
	return got, OpMeta{Rounds: m.Rounds(), Fast: m.Fast()}, nil
}
