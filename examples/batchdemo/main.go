// Batchdemo: the sharded, batched KV engine — PutBatch/GetBatch step
// one operation per key in lock-step, so every protocol round of the
// batch is one frame per server; PutAsync/GetAsync return futures for
// single operations run on their own goroutines; and each server runs
// its per-key registers across a pool of shard workers (WithKVShards).
package main

import (
	"fmt"
	"log"
	"sort"

	"luckystore"
)

func main() {
	cfg := luckystore.Config{T: 2, B: 1, Fw: 1, NumReaders: 2}
	store, err := luckystore.OpenKV(cfg, luckystore.WithKVShards(4))
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	fmt.Printf("kv store over %d servers (t=%d, b=%d), %d shard workers per server\n\n",
		cfg.S(), cfg.T, cfg.B, store.Shards())

	// One batch put: every key's WRITE stepped together, each round one
	// batched frame per server. A batch is not a transaction — each key is
	// individually atomic.
	puts := make(map[string]luckystore.Value)
	keys := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("sensor/%d", i)
		keys = append(keys, k)
		puts[k] = luckystore.Value(fmt.Sprintf("reading-%d", i*i))
	}
	if err := store.PutBatch(puts); err != nil {
		log.Fatal(err)
	}
	got, err := store.GetBatch(0, keys)
	if err != nil {
		log.Fatal(err)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-10s = %-14q (ts=%d)\n", k, string(got[k].Val), got[k].TS)
	}

	// Async futures: start operations, overlap with other work, join.
	pf := store.PutAsync("leader", "node-3")
	gf := store.GetAsync(1, "sensor/0")
	if err := pf.Wait(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nasync put:  ts=%d fast=%v\n", pf.Meta().TS, pf.Meta().Fast)
	v, err := gf.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("async get:  %q\n", string(v.Val))

	// Unwritten keys in a batch read as the initial value ⊥.
	miss, err := store.GetBatch(1, []string{"never/written"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unwritten:  bottom=%v\n", miss["never/written"].IsBottom())

	// Batch puts keep the fault tolerance: with one server crashed
	// (within fw), every key's put still completes on the fast path.
	store.CrashServer(0)
	if err := store.PutBatch(map[string]luckystore.Value{
		"sensor/0": "post-crash-0", "sensor/1": "post-crash-1",
	}); err != nil {
		log.Fatal(err)
	}
	pm, _ := store.PutMeta("sensor/1")
	fmt.Printf("\nbatch put with a crashed server: rounds=%d fast=%v\n", pm.Rounds, pm.Fast)
}
