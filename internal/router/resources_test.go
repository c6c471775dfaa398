package router

// Close gives every goroutine back: a router over simnet stores after
// its fleet changed, and a proxy over TCP clusters after batched
// traffic.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/ring"
	"luckystore/internal/types"
)

// goroutinesSettled returns the goroutine count once it has stopped
// falling: the baseline to compare against.
func goroutinesSettled() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// wantGoroutinesBack polls until the goroutine count is at most before
// (or a deadline passes), and fails with every stack if it is not.
func wantGoroutinesBack(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines: %d before, %d after %s\n%s", before, n, what, buf[:runtime.Stack(buf, true)])
	}
}

// putKeys writes n keys through put and returns them.
func putKeys(t *testing.T, n int, put func(puts map[string]types.Value) error) []string {
	t.Helper()
	puts := make(map[string]types.Value, n)
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		keys = append(keys, key)
		puts[key] = types.Value("v-" + key)
	}
	if err := put(puts); err != nil {
		t.Fatal(err)
	}
	return keys
}

func TestRouterCloseReturnsEveryGoroutine(t *testing.T) {
	before := goroutinesSettled()
	backends := map[ring.ClusterID]Backend{ring.ID(0): testCluster(t, 1), ring.ID(1): testCluster(t, 1)}
	r, err := New(Options{Seed: 1, Readers: 1}, backends)
	if err != nil {
		t.Fatal(err)
	}
	keys := putKeys(t, 32, r.PutBatch)
	if err := r.AddCluster(ring.ID(2), testCluster(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveCluster(ring.ID(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GetBatch(0, keys); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	wantGoroutinesBack(t, before, "traffic, AddCluster, RemoveCluster and Close")
}

func TestProxyCloseReturnsEveryGoroutine(t *testing.T) {
	clusters := map[ring.ClusterID][]string{"c0": {listenTCPCluster(t)}, "c1": {listenTCPCluster(t)}}
	before := goroutinesSettled()
	p, err := NewProxy(ProxyConfig{Seed: 1, Clusters: clusters})
	if err != nil {
		t.Fatal(err)
	}
	st := connectStore(t, core.Config{NumReaders: 1, RoundTimeout: 100 * time.Millisecond}, p.Addrs())
	keys := putKeys(t, 32, st.PutBatch)
	if _, err := st.GetBatch(0, keys); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	wantGoroutinesBack(t, before, "a PutBatch through the proxy and Close")
}
