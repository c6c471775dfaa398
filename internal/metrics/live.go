// Package metrics is the live instrumentation layer (DESIGN.md §13): atomic counters and
// gauges, lock-free power-of-two latency histograms, and a Registry
// that exposes everything in the Prometheus text format — no external
// dependencies, and zero allocation on every hot-path observation.
//
// The split of responsibilities is strict: wiring (creating counters,
// attaching labels, registering gauge functions) happens once at
// assembly time and may allocate; observing (Inc/Add/Set/Observe)
// happens on operation hot paths and is a handful of atomic
// instructions, never an allocation, never a lock. The PR-4 allocation
// contracts (core Put ≤5 allocs/op, KV ≤10) hold with instrumentation
// enabled, pinned by tests.
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be non-negative for exposition to make sense).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the value by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistogramBuckets is the number of power-of-two latency buckets.
// Bucket i holds observations whose nanosecond value has bit-length i,
// i.e. the half-open range [2^(i-1), 2^i); bucket 0 holds zeros and
// the last bucket additionally absorbs everything ≥ 2^(n-2) (~9.2
// minutes), so no observation is ever dropped.
const HistogramBuckets = 40

// Histogram is a lock-free latency histogram over power-of-two
// nanosecond buckets. Observe is wait-free — one bucket increment plus
// a sum and a count add — and safe under any number of concurrent
// writers; readers (Quantile, WritePrometheus) see a consistent-enough
// snapshot for monitoring purposes.
type Histogram struct {
	buckets [HistogramBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// bucketOf maps a nanosecond value to its bucket index.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= HistogramBuckets {
		return HistogramBuckets - 1
	}
	return b
}

// bucketUpper returns the exclusive upper bound of bucket i in ns.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 1
	}
	return int64(1) << uint(i)
}

// Observe records one duration. Zero-allocation and lock-free.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(int64(d)) }

// ObserveN records one raw int64 observation — histograms are
// nanosecond-valued by convention, but the power-of-two buckets work
// for any non-negative magnitude (batch widths, sizes); callers of
// Quantile on such histograms cast the Duration back to a count.
func (h *Histogram) ObserveN(n int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(n)].Add(1)
	h.count.Add(1)
	h.sum.Add(n)
}

// ObserveSince records the time elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Merge adds every bucket of o into h. Safe under concurrent Observe
// on both histograms.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) by nearest rank
// over the bucket counts, linearly interpolated inside the winning
// bucket. The power-of-two scheme bounds the relative error of any
// estimate by 2× — adequate for SLO monitoring, where the question is
// "microseconds or milliseconds", not the fourth significant digit.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	var counts [HistogramBuckets]int64
	var total int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest rank: the smallest rank r (1-based) with cum(r) ≥ q·total.
	rank := int64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo := int64(0)
			if i > 0 {
				lo = bucketUpper(i - 1)
			}
			hi := bucketUpper(i)
			// Position of the target rank inside this bucket.
			pos := float64(rank-cum) / float64(n)
			return time.Duration(float64(lo) + pos*float64(hi-lo))
		}
		cum += n
	}
	return time.Duration(bucketUpper(HistogramBuckets - 1))
}

// Label is one name/value exposition label.
type Label struct{ K, V string }

// L builds a Label.
func L(k, v string) Label { return Label{K: k, V: v} }

// NumKeyClasses is the bounded label cardinality for per-key metrics:
// keys hash into this many classes, so per-key-class histograms stay
// O(1) in the keyspace size while still separating hot-spot behavior
// from the long tail.
const NumKeyClasses = 4

// KeyClass hashes a key into [0, NumKeyClasses). FNV-1a, allocation
// free, stable across processes (so a class observed on a server can
// be correlated with the same class on a client).
func KeyClass(key string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % NumKeyClasses)
}

// KeyClassLabels returns the pre-rendered class label values
// ("0" … "3"); index by KeyClass(key) at wiring time.
var KeyClassLabels = func() [NumKeyClasses]string {
	var a [NumKeyClasses]string
	for i := range a {
		a[i] = fmt.Sprintf("%d", i)
	}
	return a
}()

// collector is anything a registry family can expose.
type collector interface{ exposed() }

func (c *Counter) exposed()   {}
func (g *Gauge) exposed()     {}
func (h *Histogram) exposed() {}

// gaugeFunc exposes a callback-valued gauge (e.g. live queue depth).
type gaugeFunc struct{ fn func() int64 }

func (gaugeFunc) exposed() {}

// child is one labeled collector inside a family.
type child struct {
	labels string // rendered `k="v",k2="v2"`, or "" for no labels
	col    collector
}

// family is all collectors sharing one metric name.
type family struct {
	name, help, typ string
	children        []child
	byLabels        map[string]int
}

// Registry holds named metric families and writes them in the
// Prometheus text exposition format. Creation methods are idempotent:
// asking twice for the same name+labels returns the same collector, so
// layers can be wired independently without coordinating ownership.
// Creation takes the registry lock and may allocate — do it at
// assembly time, keep only the returned pointers on hot paths.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// renderLabels formats labels canonically (sorted by key).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].K < ls[j].K })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.K, l.V)
	}
	return b.String()
}

// lookup finds or creates the family and the labeled child slot,
// returning the existing collector or installing the one built by mk.
func (r *Registry) lookup(name, help, typ string, labels []Label, mk func() collector) collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLabels: make(map[string]int)}
		r.fams = append(r.fams, f)
		r.byName[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	ls := renderLabels(labels)
	if i, ok := f.byLabels[ls]; ok {
		return f.children[i].col
	}
	c := mk()
	f.byLabels[ls] = len(f.children)
	f.children = append(f.children, child{labels: ls, col: c})
	return c
}

// Counter returns the counter registered under name with the given
// labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, "counter", labels, func() collector { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge registered under name with the given labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, "gauge", labels, func() collector { return new(Gauge) }).(*Gauge)
}

// GaugeFunc registers a callback sampled at exposition time — live
// queue depths, epochs, set sizes. The callback must be safe to call
// from the exposition goroutine. Re-registering the same name+labels
// keeps the first callback.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.lookup(name, help, "gauge", labels, func() collector { return gaugeFunc{fn: fn} })
}

// Histogram returns the power-of-two latency histogram registered
// under name with the given labels. By convention names end in `_ns`:
// bucket bounds, sums and quantiles are all nanoseconds.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.lookup(name, help, "histogram", labels, func() collector { return new(Histogram) }).(*Histogram)
}

// WritePrometheus writes every family in the Prometheus text format
// (version 0.0.4): HELP/TYPE headers, one line per labeled child,
// histograms as cumulative `_bucket{le=...}` series plus `_sum` and
// `_count`. Families appear in registration order, children sorted by
// label string, so output is deterministic for golden tests.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	// Snapshot child slices: families only append, never mutate in
	// place, so sharing the backing arrays is safe.
	snap := make([][]child, len(fams))
	for i, f := range fams {
		snap[i] = f.children
	}
	r.mu.Unlock()

	for i, f := range fams {
		children := make([]child, len(snap[i]))
		copy(children, snap[i])
		sort.Slice(children, func(a, b int) bool { return children[a].labels < children[b].labels })
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, c := range children {
			if err := writeChild(w, f.name, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeChild(w io.Writer, name string, c child) error {
	series := func(suffix, extra string) string {
		ls := c.labels
		if extra != "" {
			if ls != "" {
				ls += ","
			}
			ls += extra
		}
		if ls == "" {
			return name + suffix
		}
		return name + suffix + "{" + ls + "}"
	}
	switch v := c.col.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s %d\n", series("", ""), v.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s %d\n", series("", ""), v.Value())
		return err
	case gaugeFunc:
		_, err := fmt.Fprintf(w, "%s %d\n", series("", ""), v.fn())
		return err
	case *Histogram:
		var cum int64
		for i := 0; i < HistogramBuckets; i++ {
			n := v.buckets[i].Load()
			if n == 0 && i != HistogramBuckets-1 {
				continue // sparse exposition: skip interior empty buckets
			}
			cum += n
			if _, err := fmt.Fprintf(w, "%s %d\n", series("_bucket", fmt.Sprintf("le=%q", fmt.Sprint(bucketUpper(i)))), cum); err != nil {
				return err
			}
		}
		// cum (not the count atomic) keeps +Inf and _count consistent
		// with the bucket lines even while writers race the snapshot.
		if _, err := fmt.Fprintf(w, "%s %d\n", series("_bucket", `le="+Inf"`), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", series("_sum", ""), int64(v.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", series("_count", ""), cum)
		return err
	default:
		return fmt.Errorf("metrics: unknown collector type %T", c.col)
	}
}
