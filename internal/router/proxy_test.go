package router

import (
	"fmt"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/ring"
	"luckystore/internal/tcpnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
)

// listenTCPCluster starts one S=1 TCP-KV cluster and returns its
// server address.
func listenTCPCluster(t *testing.T) string {
	t.Helper()
	auto := kv.NewShardedServerAutomatonInstrumented(2, nil)
	srv, err := tcpnet.ListenSharded(types.ServerID(0), "127.0.0.1:0", auto.Shards(), auto.Route())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv.Addr()
}

// connectStore opens a kv store over TCP to the given ordered server
// addresses.
func connectStore(t *testing.T, cfg core.Config, addrs []string) *kv.Store {
	t.Helper()
	m := make(map[types.ProcID]string, len(addrs))
	for i, a := range addrs {
		m[types.ServerID(i)] = a
	}
	st, err := kv.Connect(cfg, func(id types.ProcID) (transport.Endpoint, error) { return tcpnet.Dial(id, m) })
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// An unmodified TCP-KV client pointed at the proxy spreads its keys
// over the fleet: every key reads back correctly through the proxy,
// and afterwards each key's pair is found on exactly the cluster the
// ring assigns it to.
func TestProxyRoutesAcrossTCPClusters(t *testing.T) {
	const numKeys = 24
	cfg := core.Config{NumReaders: 1, RoundTimeout: 100 * time.Millisecond}

	clusters := map[ring.ClusterID][]string{
		"c0": {listenTCPCluster(t)},
		"c1": {listenTCPCluster(t)},
	}
	p, err := NewProxy(ProxyConfig{Seed: 1, Clusters: clusters})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()

	st := connectStore(t, cfg, p.Addrs())
	keys := make([]string, numKeys)
	puts := make(map[string]types.Value, numKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		puts[keys[i]] = types.Value("v-" + keys[i])
	}
	// The batch path exercises proxy-side expand + per-cluster
	// re-coalescing; singles exercise the plain path.
	if err := st.PutBatch(puts); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		got, err := st.Get(0, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != (types.Tagged{TS: 1, Val: puts[k]}) {
			t.Errorf("Get(%q) through proxy = %v", k, got)
		}
	}
	st.Close()

	// Placement check: dial each cluster directly — a key must be
	// present on its ring owner and absent everywhere else.
	rg, err := ring.New(1, 0, p.Clusters())
	if err != nil {
		t.Fatal(err)
	}
	perCluster := map[ring.ClusterID]int{}
	for id, addrs := range clusters {
		direct := connectStore(t, cfg, addrs)
		for _, k := range keys {
			got, err := direct.Get(0, k)
			if err != nil {
				t.Fatal(err)
			}
			if owner := rg.Lookup(k); owner == id {
				perCluster[id]++
				if got.IsBottom() {
					t.Errorf("key %q missing from its owner %s", k, id)
				}
			} else if !got.IsBottom() {
				t.Errorf("key %q leaked onto %s (owner %s)", k, id, owner)
			}
		}
		direct.Close()
	}
	for id := range clusters {
		if perCluster[id] == 0 {
			t.Errorf("cluster %s received no keys out of %d", id, numKeys)
		}
	}
}
