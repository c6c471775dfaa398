package luckystore

import (
	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/metrics"
)

// KVStore is the multi-register layer: a key-value store in which every
// key is an independent SWMR atomic register of the lucky protocol,
// multiplexed over one set of 2t+b+1 servers. Each key keeps the full
// per-register guarantees — atomicity, wait-freedom, one-round lucky
// Puts and Gets — and the composition is linearizable across keys.
//
// The single-writer constraint carries over per key: this process owns
// the writer role for every key (Put); Gets go through one of the
// NumReaders reader clients.
//
// Beyond blocking Put/Get: PutBatch/GetBatch run one operation per key
// in lock-step, so a batch of N keys costs one frame per server per
// protocol round instead of N (each key still individually atomic —
// a batch is a transport grouping, not a transaction), and
// PutAsync/GetAsync return futures for operations run on goroutines of
// their own. Each server runs its per-key registers across a pool of
// shard workers (see WithKVShards).
type KVStore = kv.Store

// KVMeta aliases for inspecting KV operation complexity.
type (
	// PutMeta is the round-trip metadata of a Put (see KVStore.PutMeta).
	PutMeta = core.WriteMeta
	// GetMeta is the round-trip metadata of a Get (see KVStore.GetMeta).
	GetMeta = core.ReadMeta
)

// Async KV futures (see KVStore.PutAsync and KVStore.GetAsync).
type (
	// PutFuture is a pending asynchronous Put.
	PutFuture = kv.PutFuture
	// GetFuture is a pending asynchronous Get.
	GetFuture = kv.GetFuture
)

// KVOption configures OpenKV.
type KVOption = kv.Option

// WithKVShards sets how many shard workers each KV server runs its
// per-key registers on; the default scales with GOMAXPROCS.
func WithKVShards(n int) KVOption { return kv.WithShards(n) }

// MetricsRegistry collects live instruments — counters, gauges, and
// latency histograms — and renders them in Prometheus text format (see
// internal/metrics). One registry is shared by every layer of a store:
// protocol round counts, shard queue depths, WAL fsync latency, frame
// traffic.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty registry ready to be passed to
// WithKVMetrics or WithTCPMetrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// WithKVMetrics threads live instrumentation through every layer of the
// store: core writer/reader path counters and latency histograms,
// per-key-class Put/Get latency, per-server queue-depth gauges, WAL
// metrics on durable stores, and coalescer batch widths. The zero cost
// when absent is preserved — uninstrumented stores skip every observe
// with a nil check.
func WithKVMetrics(reg *MetricsRegistry) KVOption { return kv.WithMetrics(reg) }

// OpenKV builds and starts a key-value store on an in-memory network.
func OpenKV(cfg Config, opts ...KVOption) (*KVStore, error) { return kv.Open(cfg, opts...) }
