package luckystore_test

// One benchmark per reproduced table/figure (wrapping the E1–E14
// and E16 experiment drivers, the same code cmd/luckybench runs), plus
// operation-level micro-benchmarks for the core protocol, the Appendix
// C/D variants and the ABD baseline.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks report wall-clock per full experiment; the
// micro-benchmarks report per-operation cost on the in-memory network
// (round-trip *counts* are asserted in the test suite; these measure
// constant factors).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"luckystore"

	"luckystore/internal/abd"
	"luckystore/internal/core"
	"luckystore/internal/experiments"
	"luckystore/internal/kv"
	"luckystore/internal/regular"
	"luckystore/internal/ring"
	"luckystore/internal/router"
	"luckystore/internal/simnet"
	"luckystore/internal/storage"
	"luckystore/internal/tcpnet"
	"luckystore/internal/transport"
	"luckystore/internal/twophase"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// benchCfg keeps the round-1 timer small so slow paths do not dominate
// benchmark wall time.
func benchCfg() luckystore.Config {
	return luckystore.Config{T: 2, B: 1, Fw: 1, NumReaders: 2,
		RoundTimeout: 2 * time.Millisecond}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Pass {
			b.Fatalf("%s shape diverged from the paper:\n%s", id, res)
		}
	}
}

// --- One benchmark per experiment (table/figure) -------------------

func BenchmarkE1FastWrites(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2FastReads(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3SlowPaths(b *testing.B)     { benchExperiment(b, "E3") }
func BenchmarkE4Tradeoff(b *testing.B)      { benchExperiment(b, "E4") }
func BenchmarkE5UpperBound(b *testing.B)    { benchExperiment(b, "E5") }
func BenchmarkE6TradingReads(b *testing.B)  { benchExperiment(b, "E6") }
func BenchmarkE7WriteBound(b *testing.B)    { benchExperiment(b, "E7") }
func BenchmarkE8TwoPhase(b *testing.B)      { benchExperiment(b, "E8") }
func BenchmarkE9Regular(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10Ghost(b *testing.B)        { benchExperiment(b, "E10") }
func BenchmarkE11Baselines(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12Latency(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkE13MultiWriter(b *testing.B)  { benchExperiment(b, "E13") }
func BenchmarkE14MWReads(b *testing.B)      { benchExperiment(b, "E14") }
func BenchmarkE16SpecFastPath(b *testing.B) { benchExperiment(b, "E16") }

// --- Core protocol micro-benchmarks --------------------------------

func BenchmarkLuckyWrite(b *testing.B) {
	cluster, err := luckystore.New(benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cluster.Writer().Write(luckystore.Value(fmt.Sprintf("v%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !cluster.Writer().LastMeta().Fast {
		b.Fatal("benchmarked write was not on the fast path")
	}
}

func BenchmarkLuckyRead(b *testing.B) {
	cluster, err := luckystore.New(benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Writer().Write("v"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Reader(0).Read(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !cluster.Reader(0).LastMeta().Fast() {
		b.Fatal("benchmarked read was not on the fast path")
	}
}

// BenchmarkSlowWrite measures the 3-round write path (fw+1 failures).
// The round-1 synchrony timer dominates: this is the price of missing
// the fast quorum.
func BenchmarkSlowWrite(b *testing.B) {
	cluster, err := luckystore.New(benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	cluster.CrashServer(0)
	cluster.CrashServer(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cluster.Writer().Write(luckystore.Value(fmt.Sprintf("v%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if cluster.Writer().LastMeta().Fast {
		b.Fatal("benchmarked write unexpectedly fast")
	}
}

// BenchmarkReadWithByzantineServer shows that a forging Byzantine
// server does not knock the read off its fast path.
func BenchmarkReadWithByzantineServer(b *testing.B) {
	cluster, err := luckystore.New(benchCfg(),
		luckystore.WithForgingServer(3, 99999, "forged"))
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Writer().Write("v"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := cluster.Reader(0).Read()
		if err != nil {
			b.Fatal(err)
		}
		if got.Val == "forged" {
			b.Fatal("forged value returned")
		}
	}
}

func BenchmarkWriteLargeValue(b *testing.B) {
	cluster, err := luckystore.New(benchCfg())
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	payload := luckystore.Value(string(make([]byte, 16<<10)))
	b.SetBytes(16 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cluster.Writer().Write(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Variant and baseline micro-benchmarks -------------------------

func BenchmarkTwoPhaseWrite(b *testing.B) {
	c, err := twophase.NewCluster(twophase.Config{T: 2, B: 1, Fr: 1, NumReaders: 1,
		RoundTimeout: 2 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Writer().Write(types.Value(fmt.Sprintf("v%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoPhaseRead(b *testing.B) {
	c, err := twophase.NewCluster(twophase.Config{T: 2, B: 1, Fr: 1, NumReaders: 1,
		RoundTimeout: 2 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Writer().Write("v"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Reader(0).Read(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegularWrite(b *testing.B) {
	c, err := regular.NewCluster(regular.Config{T: 2, B: 1, NumReaders: 1,
		RoundTimeout: 2 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Writer().Write(types.Value(fmt.Sprintf("v%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegularRead(b *testing.B) {
	c, err := regular.NewCluster(regular.Config{T: 2, B: 1, NumReaders: 1,
		RoundTimeout: 2 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Writer().Write("v"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Reader(0).Read(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkABDWrite(b *testing.B) {
	c, err := abd.NewCluster(abd.Config{T: 2, NumReaders: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Writer().Write(types.Value(fmt.Sprintf("v%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkABDRead(b *testing.B) {
	c, err := abd.NewCluster(abd.Config{T: 2, NumReaders: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Writer().Write("v"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Reader(0).Read(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- KV engine benchmarks -------------------------------------------

// BenchmarkKVShardScaling measures concurrent multi-key Put throughput
// against the per-server shard worker count: the sharded engine's whole
// point is that independent keys stop serializing on one automaton
// pump, so throughput should grow from 1 shard to 4 and 16.
func BenchmarkKVShardScaling(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := luckystore.Config{T: 1, B: 0, Fw: 1, NumReaders: 1,
				RoundTimeout: 50 * time.Millisecond}
			st, err := luckystore.OpenKV(cfg, luckystore.WithKVShards(shards))
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			var nextKey atomic.Int64
			b.SetParallelism(4) // 4×GOMAXPROCS concurrent per-key writers
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				key := fmt.Sprintf("key-%d", nextKey.Add(1))
				i := 0
				for pb.Next() {
					i++
					if err := st.Put(key, luckystore.Value(fmt.Sprintf("v%d", i))); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

const benchBatchKeys = 32

// BenchmarkPutLooped is the baseline PutBatch is measured against: the
// same keys written back-to-back through the blocking API.
func BenchmarkPutLooped(b *testing.B) {
	cfg := luckystore.Config{T: 1, B: 0, Fw: 1, NumReaders: 1,
		RoundTimeout: 50 * time.Millisecond}
	st, err := luckystore.OpenKV(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	keys := make([]string, benchBatchKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val := luckystore.Value(fmt.Sprintf("v%d", i))
		for _, k := range keys {
			if err := st.Put(k, val); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*benchBatchKeys)/b.Elapsed().Seconds(), "puts/s")
}

// BenchmarkDurabilityModes is experiment E15: the cost of the WAL, by
// fsync policy, on the simnet KV deployment. "none" is the in-memory
// seed behavior (no storage at all); "memory" pays the record encode +
// arena copy but no I/O; the file modes add a real log with no fsync,
// an fsync per commit, and the group-commit batching the durable
// deployments actually run. puts/s is the headline; allocs/op is the
// hot-path contract (file modes must track "memory").
func BenchmarkDurabilityModes(b *testing.B) {
	cfg := luckystore.Config{T: 1, B: 0, Fw: 1, NumReaders: 1,
		RoundTimeout: 50 * time.Millisecond}
	modes := []struct {
		name string
		prov func(b *testing.B) storage.Provider
	}{
		{"none", func(*testing.B) storage.Provider { return nil }},
		{"memory", func(*testing.B) storage.Provider {
			return storage.NewMemProvider(kv.NewStorageAutomaton)
		}},
		{"file-nosync", func(b *testing.B) storage.Provider {
			return storage.NewDirProvider(b.TempDir(), kv.NewStorageAutomaton,
				storage.WithSyncMode(storage.SyncNone))
		}},
		{"file-sync-each", func(b *testing.B) storage.Provider {
			return storage.NewDirProvider(b.TempDir(), kv.NewStorageAutomaton,
				storage.WithSyncMode(storage.SyncEach))
		}},
		{"file-group-commit", func(b *testing.B) storage.Provider {
			return storage.NewDirProvider(b.TempDir(), kv.NewStorageAutomaton,
				storage.WithSyncMode(storage.SyncBatched))
		}},
	}
	keys := make([]string, benchBatchKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			opts := []kv.Option{kv.WithShards(2)}
			if p := mode.prov(b); p != nil {
				opts = append(opts, kv.WithStorage(p))
			}
			st, err := kv.Open(cfg, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			for _, k := range keys { // warm every key's register and WAL buffers
				if err := st.Put(k, "warm"); err != nil {
					b.Fatal(err)
				}
			}
			// PutBatch fans the keys out concurrently across the shard
			// workers, so the file modes have concurrent committers —
			// the traffic shape group-commit exists for.
			batch := make(map[string]types.Value, len(keys))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				val := types.Value(fmt.Sprintf("v%d", i))
				for _, k := range keys {
					batch[k] = val
				}
				if err := st.PutBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*benchBatchKeys)/b.Elapsed().Seconds(), "puts/s")
		})
	}
}

// BenchmarkPutBatch writes the same 32 keys per iteration through the
// concurrent batch API, with the fan-out coalesced into batched frames.
func BenchmarkPutBatch(b *testing.B) {
	cfg := luckystore.Config{T: 1, B: 0, Fw: 1, NumReaders: 1,
		RoundTimeout: 50 * time.Millisecond}
	st, err := luckystore.OpenKV(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		puts := make(map[string]luckystore.Value, benchBatchKeys)
		val := luckystore.Value(fmt.Sprintf("v%d", i))
		for k := 0; k < benchBatchKeys; k++ {
			puts[fmt.Sprintf("key-%d", k)] = val
		}
		if err := st.PutBatch(puts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*benchBatchKeys)/b.Elapsed().Seconds(), "puts/s")
}

// benchDelayedStore opens a KV store whose network charges a per-hop
// delivery delay, modeling a real network instead of the free in-memory
// one: sequential round trips now cost wall-clock time, which is what
// the pipelined batch APIs eliminate.
func benchDelayedStore(b *testing.B) *kv.Store {
	b.Helper()
	st, err := kv.Open(core.Config{T: 1, B: 0, Fw: 1, NumReaders: 1,
		RoundTimeout: 50 * time.Millisecond},
		kv.WithSimOptions(simnet.WithDefaultDelay(200*time.Microsecond)))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(st.Close)
	return st
}

// BenchmarkPutLoopedDelayed pays one full round trip per key in
// sequence — the baseline cost of the blocking API over a network with
// latency.
func BenchmarkPutLoopedDelayed(b *testing.B) {
	st := benchDelayedStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		val := types.Value(fmt.Sprintf("v%d", i))
		for k := 0; k < benchBatchKeys; k++ {
			if err := st.Put(fmt.Sprintf("key-%d", k), val); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*benchBatchKeys)/b.Elapsed().Seconds(), "puts/s")
}

// BenchmarkPutBatchDelayed overlaps the same round trips: all keys'
// messages are in flight together (and coalesced into batch frames), so
// the batch pays roughly one round-trip latency instead of 32.
func BenchmarkPutBatchDelayed(b *testing.B) {
	st := benchDelayedStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		puts := make(map[string]types.Value, benchBatchKeys)
		val := types.Value(fmt.Sprintf("v%d", i))
		for k := 0; k < benchBatchKeys; k++ {
			puts[fmt.Sprintf("key-%d", k)] = val
		}
		if err := st.PutBatch(puts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*benchBatchKeys)/b.Elapsed().Seconds(), "puts/s")
}

// BenchmarkGetBatch reads 32 preloaded keys per iteration through the
// concurrent batch API.
func BenchmarkGetBatch(b *testing.B) {
	cfg := luckystore.Config{T: 1, B: 0, Fw: 1, NumReaders: 1,
		RoundTimeout: 50 * time.Millisecond}
	st, err := luckystore.OpenKV(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	keys := make([]string, benchBatchKeys)
	puts := make(map[string]luckystore.Value, benchBatchKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		puts[keys[i]] = "v"
	}
	if err := st.PutBatch(puts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := st.GetBatch(0, keys)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != benchBatchKeys {
			b.Fatalf("GetBatch returned %d values", len(got))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*benchBatchKeys)/b.Elapsed().Seconds(), "gets/s")
}

// --- Loopback-TCP KV benchmarks -------------------------------------

// benchTCPKVCluster starts S KV servers on loopback TCP, each stepping
// its keys on the given number of shard workers (ListenTCPKV's
// pipeline), plus a client store dialed to them.
func benchTCPKVCluster(b *testing.B, cfg luckystore.Config, shards int) *luckystore.KVStore {
	b.Helper()
	addrs := make([]string, cfg.S())
	for i := range addrs {
		srv, err := luckystore.ListenTCPKV(i, "127.0.0.1:0", luckystore.WithTCPShards(shards))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	st, err := luckystore.OpenKVTCP(cfg, luckystore.ServerAddrs(addrs))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(st.Close)
	return st
}

// BenchmarkTCPKVStepping measures concurrent multi-key Put throughput
// over real loopback sockets: sharded=1 steps every key of a server on
// one shard, the wider variants step independent keys on parallel shard
// workers. This is the deployment-level twin of BenchmarkKVShardScaling
// — gains need GOMAXPROCS > 1; on one core it bounds the pipeline's
// overhead instead.
func BenchmarkTCPKVStepping(b *testing.B) {
	cfg := luckystore.Config{T: 1, B: 0, Fw: 1, NumReaders: 1,
		RoundTimeout: 50 * time.Millisecond, OpTimeout: 30 * time.Second}
	for _, v := range []struct {
		name   string
		shards int
	}{
		{"sharded=1", 1},
		{"sharded=4", 4},
		{"sharded=16", 16},
	} {
		b.Run(v.name, func(b *testing.B) {
			st := benchTCPKVCluster(b, cfg, v.shards)
			var nextKey atomic.Int64
			b.SetParallelism(4) // 4×GOMAXPROCS concurrent per-key writers
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				key := fmt.Sprintf("key-%d", nextKey.Add(1))
				i := 0
				for pb.Next() {
					i++
					if err := st.Put(key, luckystore.Value(fmt.Sprintf("v%d", i))); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "puts/s")
		})
	}
}

// BenchmarkTCPKVPutBatch pushes batched multi-key rounds through the
// sharded TCP pipeline: each iteration is one PutBatch whose fan-out
// coalesces into batch frames and fans out across shard workers.
func BenchmarkTCPKVPutBatch(b *testing.B) {
	cfg := luckystore.Config{T: 1, B: 0, Fw: 1, NumReaders: 1,
		RoundTimeout: 50 * time.Millisecond, OpTimeout: 30 * time.Second}
	st := benchTCPKVCluster(b, cfg, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		puts := make(map[string]luckystore.Value, benchBatchKeys)
		val := luckystore.Value(fmt.Sprintf("v%d", i))
		for k := 0; k < benchBatchKeys; k++ {
			puts[fmt.Sprintf("key-%d", k)] = val
		}
		if err := st.PutBatch(puts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*benchBatchKeys)/b.Elapsed().Seconds(), "puts/s")
}

// --- Multi-writer fast-path benchmarks ------------------------------

// benchMWStore opens a KV deployment with the given number of writer
// identities — on the in-memory simnet or over loopback TCP — whose
// store speaks as every one of them (PutAs).
func benchMWStore(b *testing.B, writers int, tcp bool) *kv.Store {
	b.Helper()
	cfg := core.Config{T: 1, B: 0, Fw: 1, NumReaders: 1, Writers: writers,
		RoundTimeout: 50 * time.Millisecond, OpTimeout: 30 * time.Second}
	var st *kv.Store
	var err error
	if tcp {
		st, err = kv.Connect(cfg, benchTCPServers(b, cfg.S()))
	} else {
		st, err = kv.Open(cfg)
	}
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(st.Close)
	return st
}

// benchTCPServers starts s sharded KV servers on loopback TCP,
// closed when the benchmark ends, and returns a dial function for
// kv.Connect.
func benchTCPServers(b *testing.B, s int) func(types.ProcID) (transport.Endpoint, error) {
	b.Helper()
	m := make(map[types.ProcID]string, s)
	for i := 0; i < s; i++ {
		auto := kv.NewShardedServerAutomatonInstrumented(4, nil)
		srv, err := tcpnet.ListenSharded(types.ServerID(i), "127.0.0.1:0", auto.Shards(), auto.Route())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = srv.Close() })
		m[types.ServerID(i)] = srv.Addr()
	}
	return func(id types.ProcID) (transport.Endpoint, error) { return tcpnet.Dial(id, m) }
}

// BenchmarkMWWriteFastPath measures hot-key Put throughput by writer
// contention, on the in-memory network and over loopback TCP
// (BENCH_mw.json in CI, both GOMAXPROCS legs). sw-baseline is the
// published single-writer Fig. 1 path; uncontended opens a second
// identity but writes only through the primary, so every steady-state
// put rides the speculative one-round fast path (DESIGN.md §12) and
// should track the baseline — the query-elision claim, priced.
// contenders=2/4 race that many identities on the one key, where NACK
// flips and query rounds price real contention.
func BenchmarkMWWriteFastPath(b *testing.B) {
	for _, tcp := range []bool{false, true} {
		netName := "simnet"
		if tcp {
			netName = "tcp"
		}
		for _, v := range []struct {
			name            string
			writers, active int
		}{
			{"sw-baseline", 1, 1},
			{"uncontended", 2, 1},
			{"contenders=2", 2, 2},
			{"contenders=4", 4, 4},
		} {
			b.Run(netName+"/"+v.name, func(b *testing.B) {
				st := benchMWStore(b, v.writers, tcp)
				const key = "hot"
				for w := 0; w < v.active; w++ { // warm caches; spec engages
					for i := 0; i < 64; i++ {
						if err := st.PutAs(w, key, "warm"); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < v.active; w++ {
					n := b.N / v.active
					if w == 0 {
						n += b.N % v.active
					}
					wg.Add(1)
					go func(w, n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							if err := st.PutAs(w, key, types.Value(fmt.Sprintf("w%d.v%d", w, i))); err != nil {
								b.Error(err)
								return
							}
						}
					}(w, n)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "puts/s")
			})
		}
	}
}

// --- Router scale-out benchmarks ------------------------------------

// benchRouterCluster opens one cluster's kv store for the router fleet:
// an in-memory simnet cluster, or S sharded servers on loopback TCP
// with a dialed client store. The router takes ownership and closes it.
func benchRouterCluster(b *testing.B, cfg core.Config, tcp bool) *kv.Store {
	b.Helper()
	if !tcp {
		st, err := kv.Open(cfg, kv.WithShards(4))
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	st, err := kv.Connect(cfg, benchTCPServers(b, cfg.S()))
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkRouterClusterScaling measures aggregate concurrent Put
// throughput as independent register clusters are added behind one
// consistent-hash router. Each cluster is a full S-server deployment
// with its own network, so clusters share nothing but the client:
// aggregate puts/s should grow with the fleet when GOMAXPROCS > 1 (on
// one core the run bounds the routing layer's overhead instead). The
// tcp variants run the same fleet over real loopback sockets.
func BenchmarkRouterClusterScaling(b *testing.B) {
	cfg := core.Config{T: 1, B: 0, Fw: 1, NumReaders: 1,
		RoundTimeout: 50 * time.Millisecond, OpTimeout: 30 * time.Second}
	for _, tcp := range []bool{false, true} {
		netName := "simnet"
		if tcp {
			netName = "tcp"
		}
		for _, n := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/clusters=%d", netName, n), func(b *testing.B) {
				backends := make(map[ring.ClusterID]router.Backend, n)
				for i := 0; i < n; i++ {
					backends[ring.ID(i)] = benchRouterCluster(b, cfg, tcp)
				}
				r, err := router.New(router.Options{Seed: 1, Readers: cfg.NumReaders}, backends)
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { _ = r.Close() })
				var nextKey atomic.Int64
				b.SetParallelism(4) // 4×GOMAXPROCS concurrent per-key writers
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					key := fmt.Sprintf("key-%d", nextKey.Add(1))
					i := 0
					for pb.Next() {
						i++
						if _, err := r.Put(key, types.Value(fmt.Sprintf("v%d", i))); err != nil {
							b.Error(err)
							return
						}
					}
				})
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "puts/s")
			})
		}
	}
}

// --- Component micro-benchmarks -------------------------------------

func BenchmarkFrameEncodeDecode(b *testing.B) {
	env := wire.Envelope{
		From: types.ServerID(3), To: types.ReaderID(0),
		Msg: wire.ReadAck{
			TSR: 7, Round: 1,
			PW: types.Tagged{TS: 9, Val: "payload-value"},
			W:  types.Tagged{TS: 8, Val: "older-value"},
			VW: types.Tagged{TS: 7, Val: "oldest"},
		},
	}
	var buf writableBuffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := wire.EncodeFrame(&buf, env); err != nil {
			b.Fatal(err)
		}
		if _, err := wire.DecodeFrame(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViewSelect(b *testing.B) {
	cfg := core.Config{T: 2, B: 1, Fw: 1}
	c := types.Tagged{TS: 40, Val: "current"}
	old := types.Tagged{TS: 39, Val: "previous"}
	view := core.NewView(cfg, 1)
	for i := 0; i < cfg.S(); i++ {
		view.Update(types.ServerID(i), 1, c, old, old, types.InitialFrozen())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := view.Select(); !ok {
			b.Fatal("no candidate")
		}
	}
}

// writableBuffer is a minimal growable read/write buffer for the codec
// benchmark (avoids bytes.Buffer's interface indirection noise).
type writableBuffer struct {
	data []byte
	off  int
}

func (w *writableBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

func (w *writableBuffer) Read(p []byte) (int, error) {
	n := copy(p, w.data[w.off:])
	w.off += n
	if n == 0 {
		return 0, fmt.Errorf("EOF")
	}
	return n, nil
}

func (w *writableBuffer) Reset() { w.data, w.off = w.data[:0], 0 }
