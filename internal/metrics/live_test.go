package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets pins the power-of-two bucket boundaries.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 50, HistogramBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// TestHistogramQuantile checks nearest-rank selection over buckets:
// with all mass in one bucket the quantile lands inside that bucket's
// bounds, and with split mass the right bucket wins.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// 90 observations near 1µs, 10 near 1ms.
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 * time.Millisecond)
	}
	if q := h.Quantile(0.50); q < 512*time.Nanosecond || q > 2*time.Microsecond {
		t.Errorf("p50 = %v, want ~1µs (within its power-of-two bucket)", q)
	}
	// p90: rank 90 of 100 is still the last of the 1µs observations.
	if q := h.Quantile(0.90); q > 2*time.Microsecond {
		t.Errorf("p90 = %v, want ≤2µs (rank 90 is the last fast op)", q)
	}
	// p91 crosses into the millisecond bucket.
	if q := h.Quantile(0.91); q < 512*time.Microsecond || q > 2*time.Millisecond {
		t.Errorf("p91 = %v, want ~1ms", q)
	}
	if q := h.Quantile(1.0); q < 512*time.Microsecond || q > 2*time.Millisecond {
		t.Errorf("p100 = %v, want ~1ms", q)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d, want 100", h.Count())
	}
	wantSum := 90*time.Microsecond + 10*time.Millisecond
	if h.Sum() != wantSum {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

// TestHistogramConcurrentMerge hammers one histogram from many
// writers while another goroutine merges it into an aggregate and a
// reader computes quantiles — the -race leg proves Observe/Merge/
// Quantile need no locks, and the final counts prove no observation
// was lost.
func TestHistogramConcurrentMerge(t *testing.T) {
	const writers, perWriter = 8, 5000
	var src, agg Histogram
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				src.Observe(time.Duration(1+(i%1000)) * time.Microsecond)
			}
		}(w)
	}
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				agg.Merge(&src) // racing merge: must not panic or tear
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = src.Quantile(0.99)
				var b bytes.Buffer
				r := NewRegistry()
				r.lookup("x_ns", "", "histogram", nil, func() collector { return &src })
				_ = r.WritePrometheus(&b)
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := src.Count(); got != writers*perWriter {
		t.Fatalf("lost observations: count = %d, want %d", got, writers*perWriter)
	}
	// A final quiescent merge into a fresh histogram preserves counts.
	var final Histogram
	final.Merge(&src)
	if final.Count() != src.Count() || final.Sum() != src.Sum() {
		t.Fatalf("merge lost mass: %d/%v vs %d/%v", final.Count(), final.Sum(), src.Count(), src.Sum())
	}
}

// TestWritePrometheusGolden pins the exposition format: HELP/TYPE
// headers, label rendering, deterministic ordering, cumulative
// histogram buckets with sparse interior omission.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lucky_ops_total", "Operations completed.", L("op", "put"))
	c.Add(3)
	r.Counter("lucky_ops_total", "Operations completed.", L("op", "get")).Add(5)
	g := r.Gauge("lucky_epoch", "Current ring epoch.")
	g.Set(7)
	r.GaugeFunc("lucky_queue_depth", "Live queue depth.", func() int64 { return 2 }, L("shard", "0"))
	h := r.Histogram("lucky_put_latency_ns", "Put latency.", L("class", "1"))
	h.Observe(3 * time.Nanosecond)   // bucket 2, upper bound 4
	h.Observe(3 * time.Nanosecond)   // same bucket
	h.Observe(100 * time.Nanosecond) // bucket 7, upper bound 128

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP lucky_ops_total Operations completed.",
		"# TYPE lucky_ops_total counter",
		`lucky_ops_total{op="get"} 5`,
		`lucky_ops_total{op="put"} 3`,
		"# HELP lucky_epoch Current ring epoch.",
		"# TYPE lucky_epoch gauge",
		"lucky_epoch 7",
		"# HELP lucky_queue_depth Live queue depth.",
		"# TYPE lucky_queue_depth gauge",
		`lucky_queue_depth{shard="0"} 2`,
		"# HELP lucky_put_latency_ns Put latency.",
		"# TYPE lucky_put_latency_ns histogram",
		`lucky_put_latency_ns_bucket{class="1",le="4"} 2`,
		`lucky_put_latency_ns_bucket{class="1",le="128"} 3`,
		`lucky_put_latency_ns_bucket{class="1",le="549755813888"} 3`,
		`lucky_put_latency_ns_bucket{class="1",le="+Inf"} 3`,
		`lucky_put_latency_ns_sum{class="1"} 106`,
		`lucky_put_latency_ns_count{class="1"} 3`,
		"",
	}, "\n")
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRegistryIdempotent: same name+labels → same collector; same
// name, different type → panic (a wiring bug, caught at assembly).
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("k", "v"))
	b := r.Counter("x_total", "x", L("k", "v"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	if c := r.Counter("x_total", "x", L("k", "w")); c == a {
		t.Fatal("different labels returned the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "x")
}

// TestKeyClassBounds: classes stay in range and a given key is stable.
func TestKeyClassBounds(t *testing.T) {
	seen := map[int]bool{}
	for _, k := range []string{"", "a", "key-17", "user:12345", "zzzz", "k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"} {
		c := KeyClass(k)
		if c < 0 || c >= NumKeyClasses {
			t.Fatalf("KeyClass(%q) = %d out of range", k, c)
		}
		if c != KeyClass(k) {
			t.Fatalf("KeyClass(%q) unstable", k)
		}
		seen[c] = true
	}
	if len(seen) < 2 {
		t.Fatalf("key classes degenerate: only %d distinct classes over sample keys", len(seen))
	}
}

// TestNilInstrumentsAreNoops: every hot-path method tolerates a nil
// receiver, which is how disabled instrumentation stays branch-cheap.
func TestNilInstrumentsAreNoops(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(-1)
	h.Observe(time.Second)
	h.ObserveSince(time.Now())
	h.Merge(nil)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read as zero")
	}
}
