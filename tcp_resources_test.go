package luckystore_test

// Resource bounds of the loopback-TCP KV path: goroutines are O(1) in
// the number of open keys, and a listen → dial → traffic → Close cycle
// gives every goroutine back.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"luckystore"
)

// goroutinesAtMost polls until the goroutine count is at most want (or
// a deadline passes) and returns the last count: goroutines that have
// been joined may take a moment to leave the scheduler's books.
func goroutinesAtMost(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

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

// TestTCPKVGoroutinesIndependentOfKeys: a key's inbox is a
// transport.Mailbox, which parks no goroutine, so opening 4096 keys for
// writing and reading costs the same goroutines as opening one (the
// per-key drainers used to add about two per key per role).
func TestTCPKVGoroutinesIndependentOfKeys(t *testing.T) {
	cfg := luckystore.Config{T: 1, B: 0, Fw: 0, NumReaders: 1}
	_, addrs := startKVCluster(t, cfg)
	store, err := luckystore.OpenKVTCP(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	touch := func(i int) {
		t.Helper()
		key := fmt.Sprintf("key-%04d", i)
		if err := store.Put(key, "v"); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Get(0, key); err != nil {
			t.Fatal(err)
		}
	}
	touch(0) // dials every connection: the fixed cost
	oneKey := goroutinesSettled()
	const keys = 4096
	for i := 1; i < keys; i++ {
		touch(i)
	}
	// Slack for an overflow drainer or two that a straggling reply
	// started and that is about to exit.
	if got := goroutinesAtMost(oneKey); got > oneKey+4 {
		t.Errorf("goroutines: %d with one key open, %d with %d — want O(1) in keys", oneKey, got, keys)
	}
}

// TestTCPKVCloseReturnsEveryGoroutine: ListenTCPKV ×S and OpenKVTCP,
// blocking and batched traffic on both the inline and the pooled server
// path, then Close — the goroutine count is back where it started.
func TestTCPKVCloseReturnsEveryGoroutine(t *testing.T) {
	cfg := luckystore.Config{T: 1, B: 0, Fw: 0, NumReaders: 2}
	before := goroutinesSettled()
	for cycle := 0; cycle < 3; cycle++ {
		servers := make([]*luckystore.TCPServer, cfg.S())
		addrs := make([]string, cfg.S())
		for i := range servers {
			srv, err := luckystore.ListenTCPKV(i, "127.0.0.1:0", luckystore.WithTCPShards(4))
			if err != nil {
				t.Fatal(err)
			}
			servers[i], addrs[i] = srv, srv.Addr()
		}
		store, err := luckystore.OpenKVTCP(cfg, luckystore.ServerAddrs(addrs))
		if err != nil {
			t.Fatal(err)
		}
		puts := make(map[string]luckystore.Value)
		var keys []string
		for i := 0; i < 64; i++ {
			key := fmt.Sprintf("key-%d", i)
			keys = append(keys, key)
			puts[key] = luckystore.Value(fmt.Sprintf("c%d", cycle))
			if err := store.Put(key, "v"); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Get(i%2, key); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.PutBatch(puts); err != nil {
			t.Fatal(err)
		}
		if _, err := store.GetBatch(1, keys); err != nil {
			t.Fatal(err)
		}
		store.Close()
		for _, srv := range servers {
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if after := goroutinesAtMost(before); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines: %d before, %d after three listen/dial/traffic/Close cycles\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestTCPKVDurableCloseReturnsEveryGoroutine is the WAL-backed twin:
// ListenTCPKV with WithTCPDataDir ×S, the same traffic, then Close — and
// reopening the directories serves every key's last acknowledged value.
// This pins the order Close relies on: tcpnet.Server.Close joins every
// read goroutine (and any step in progress on one), then closes the
// step pool, and only then does TCPServer.Close close the WAL. (The
// facade's WAL fsyncs, so its durable shards step on their workers; a
// WAL that does not fsync steps on read goroutines too.)
func TestTCPKVDurableCloseReturnsEveryGoroutine(t *testing.T) {
	cfg := luckystore.Config{T: 1, B: 0, Fw: 0, NumReaders: 2}
	before := goroutinesSettled()
	for cycle := 0; cycle < 3; cycle++ {
		root := t.TempDir()
		open := func() ([]*luckystore.TCPServer, *luckystore.KVStore) {
			t.Helper()
			servers := make([]*luckystore.TCPServer, cfg.S())
			addrs := make([]string, cfg.S())
			for i := range servers {
				srv, err := luckystore.ListenTCPKV(i, "127.0.0.1:0", luckystore.WithTCPShards(4),
					luckystore.WithTCPDataDir(filepath.Join(root, srv0Name(i))))
				if err != nil {
					t.Fatal(err)
				}
				servers[i], addrs[i] = srv, srv.Addr()
			}
			store, err := luckystore.OpenKVTCP(cfg, luckystore.ServerAddrs(addrs))
			if err != nil {
				t.Fatal(err)
			}
			return servers, store
		}
		closeAll := func(servers []*luckystore.TCPServer, store *luckystore.KVStore) {
			t.Helper()
			store.Close()
			for _, srv := range servers {
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}

		servers, store := open()
		puts := make(map[string]luckystore.Value)
		var keys []string
		for i := 0; i < 64; i++ {
			key := fmt.Sprintf("key-%d", i)
			keys = append(keys, key)
			puts[key] = luckystore.Value(fmt.Sprintf("c%d-%d", cycle, i))
			if err := store.Put(key, "v"); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Get(i%2, key); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.PutBatch(puts); err != nil {
			t.Fatal(err)
		}
		if _, err := store.GetBatch(1, keys); err != nil {
			t.Fatal(err)
		}
		closeAll(servers, store)

		servers, store = open()
		for _, key := range keys {
			got, err := store.Get(0, key)
			if err != nil {
				t.Fatalf("cycle %d: get %q after reopening: %v", cycle, key, err)
			}
			if got.Val != puts[key] {
				t.Fatalf("cycle %d: get %q after reopening = %q, want the last acknowledged %q", cycle, key, got.Val, puts[key])
			}
		}
		closeAll(servers, store)
	}
	if after := goroutinesAtMost(before); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines: %d before, %d after three durable listen/dial/traffic/Close/reopen cycles\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}
}
