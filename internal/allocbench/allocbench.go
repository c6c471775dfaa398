// Package allocbench holds the operation-level allocation benchmark
// bodies shared by the root `go test -bench` entry points
// (alloc_bench_test.go) and cmd/luckybench's -allocs mode, so the
// numbers in BENCH_core.json and the ones EXPERIMENTS.md records from
// `go test` can never drift apart: there is exactly one definition of
// each measured workload.
//
// Importing the testing package from non-test code is deliberate —
// luckybench runs these via testing.Benchmark.
package allocbench

import (
	"runtime"
	"strconv"
	"testing"

	"luckystore/internal/core"
	"luckystore/internal/keyed"
	"luckystore/internal/kv"
	"luckystore/internal/node"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Config is the deployment the allocation contract is pinned on: the
// smallest crash-only cluster (t = 1, b = 0, S = 3), so per-server
// costs are visible without drowning in server count. It matches
// internal/core's TestPutSteadyStateAllocs.
func Config() core.Config {
	return core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1}
}

// warmupOps warms pooled round state, lazy maps and scratch buffers
// before the timed loop.
const warmupOps = 32

// IdleKeys is the register count of the idle-key heap measurement.
const IdleKeys = 10_000

// CorePut measures a steady-state fast WRITE on simnet. allocs/op
// counts every goroutine (clients, servers, network): it is the
// whole-system per-operation allocation cost.
func CorePut(b *testing.B) {
	cl, err := core.NewCluster(Config())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	w := cl.Writer()
	for i := 0; i < warmupOps; i++ {
		if err := w.Write("warm"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write("steady-state-value"); err != nil {
			b.Fatal(err)
		}
	}
}

// CoreGet measures a steady-state fast READ on simnet.
func CoreGet(b *testing.B) {
	cl, err := core.NewCluster(Config())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Writer().Write("stored"); err != nil {
		b.Fatal(err)
	}
	r := cl.Reader(0)
	for i := 0; i < warmupOps; i++ {
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// KVPut measures a steady-state Put through the full KV engine (demux,
// coalescer, sharded servers) on simnet.
func KVPut(b *testing.B) {
	st, err := kv.Open(Config(), kv.WithShards(2))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < warmupOps; i++ {
		if err := st.Put("bench-key", "warm"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Put("bench-key", "steady-state-value"); err != nil {
			b.Fatal(err)
		}
	}
}

// KVGet measures a steady-state Get through the full KV engine on
// simnet.
func KVGet(b *testing.B) {
	st, err := kv.Open(Config(), kv.WithShards(2))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("bench-key", "stored"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warmupOps; i++ {
		if _, err := st.Get(0, "bench-key"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Get(0, "bench-key"); err != nil {
			b.Fatal(err)
		}
	}
}

// IdleKeyHeap reports the heap bytes one instantiated-but-idle
// register pins on one server (metric "heapB/key"): the dominant
// per-key memory cost at millions-of-keys scale. Each iteration builds
// a keyed server shard map holding IdleKeys core automata, the state an
// idle KV key leaves behind on every one of the S servers.
func IdleKeyHeap(b *testing.B) {
	var before, after runtime.MemStats
	var sink []*keyed.ShardedServer
	b.ReportAllocs()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		srv := keyed.NewShardedServer(4, func() node.Automaton { return core.NewServer() })
		touchIdleKeys(srv, IdleKeys)
		sink = append(sink, srv)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perKey := float64(after.HeapAlloc-before.HeapAlloc) / float64(b.N) / float64(IdleKeys)
	b.ReportMetric(perKey, "heapB/key")
	runtime.KeepAlive(sink)
}

// touchIdleKeys instantiates n register automata the way real traffic
// does: one message per key routed through the shard's keyed step.
func touchIdleKeys(srv *keyed.ShardedServer, n int) {
	shards := srv.Shards()
	route := srv.Route()
	for i := 0; i < n; i++ {
		m := wire.Keyed{Key: "key-" + strconv.Itoa(i), Inner: wire.Read{TSR: 1, Round: 1}}
		shards[route(m)].StepAppend(types.ReaderID(0), m, nil)
	}
}
