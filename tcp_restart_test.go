package luckystore_test

// Crash-restart e2e over the TCP KV deployment (PR 5 satellite): one
// server process is torn down and restarted on the same address while
// a writer and readers keep operating, and the full recorded history
// must stay checker-clean per key.
//
// A restarted TCP server rejoins with empty register state — an
// amnesiac recovery, which the failure model can only classify as
// Byzantine (it answers protocol-correctly from initial state). The
// test therefore runs with b=1 so the one amnesiac server stays inside
// the Byzantine budget, exactly the accounting the chaos engine's
// budget guard applies to cold restarts.

import (
	"context"
	"testing"
	"time"

	"luckystore"
	"luckystore/internal/checker"
	"luckystore/internal/workload"
)

func TestTCPKVCrashRestartCheckerClean(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-restart e2e skipped in -short mode")
	}
	cfg := luckystore.Config{T: 2, B: 1, Fw: 0, NumReaders: 2,
		RoundTimeout: 20 * time.Millisecond, OpTimeout: 20 * time.Second}
	servers, addrMap := startKVCluster(t, cfg, luckystore.WithTCPShards(2))

	store, err := luckystore.OpenKVTCP(cfg, addrMap)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Continuous recorded traffic over a few keys.
	ctx, cancel := context.WithCancel(context.Background())
	gen := workload.Continuous{
		Keys: []string{"alpha", "beta", "gamma"}, Seed: 11,
	}
	type result struct {
		rec *checker.Recorder
		err error
	}
	done := make(chan result, 1)
	go func() {
		rec, err := gen.Run(ctx, workload.KVDriver{S: store})
		done <- result{rec, err}
	}()

	// Let traffic establish, then crash-restart server 3 on its
	// address mid-workload.
	time.Sleep(150 * time.Millisecond)
	victim := 3
	addr := servers[victim].Addr()
	if err := servers[victim].Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // stay down long enough to matter
	var restarted *luckystore.TCPServer
	for attempt := 0; attempt < 100; attempt++ {
		restarted, err = luckystore.ListenTCPKV(victim, addr, luckystore.WithTCPShards(2))
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer restarted.Close()
	restartedAt := time.Now()

	// Keep going after the restart so the amnesiac server serves real
	// traffic, then stop and check.
	time.Sleep(400 * time.Millisecond)
	cancel()
	res := <-done
	if res.err != nil {
		t.Fatalf("workload error across restart: %v", res.err)
	}
	ops := res.rec.Ops()
	var afterRestart int
	for _, op := range ops {
		if op.Err == nil && op.Invoke.After(restartedAt) {
			afterRestart++
		}
	}
	if len(ops) == 0 {
		t.Fatal("no operations recorded")
	}
	if afterRestart == 0 {
		t.Error("no operation completed after the restart")
	}
	for _, v := range checker.CheckAtomicityPerKey(ops) {
		t.Errorf("violation: %v", v)
	}
	t.Logf("ops=%d (after restart: %d) across %d keys", len(ops), afterRestart, 3)

	// The restarted server is reachable again: a fresh put/get cycle
	// still round-trips on every key.
	for _, k := range []string{"alpha", "beta", "gamma"} {
		if err := store.Put(k, "final"); err != nil {
			t.Fatalf("final put %q: %v", k, err)
		}
		got, err := store.Get(0, k)
		if err != nil || got.Val != "final" {
			t.Fatalf("final get %q = %v, %v", k, got, err)
		}
	}
}
