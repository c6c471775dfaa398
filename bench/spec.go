package main

import "time"

// Fixed shape of every workload (ISSUE 11): S = 3 servers tolerating one
// crash, two closed-loop client actors, 4096 preloaded keys, 64-byte
// values. Kept as constants because a benchmark whose shape can be set
// per run is no yardstick.
const (
	numKeys   = 4096
	valueSize = 64
	batchSize = 32 // keys per PutBatch/GetBatch call on tcp_batch
	downIndex = 2  // the server tcp_one_down closes after preload
	setupReps = 5  // set-ups per measured run; setup_s is their median
	warmup    = 2 * time.Second
)

// workload is one traffic mix. The program under test never sees the
// name: it only selects how the fleet is assembled and which facade
// calls the actors loop over.
type workload struct {
	Name    string
	Why     string
	Durable bool // every server gets a WAL directory
	OneDown bool // server downIndex is closed after preload
	Batch   int  // keys per call; 1 means blocking Put/Get
}

var workloads = []workload{
	{Name: "tcp_calm", Batch: 1,
		Why: "every op is lucky (1 round): latency is socket + wakeup + step cost, timers and storage idle"},
	{Name: "tcp_one_down", Batch: 1, OneDown: true,
		Why: "one server closed: every op waits the 25 ms round timer, writes pay 3 rounds, so core's timer is ~99% of latency"},
	{Name: "tcp_durable", Batch: 1, Durable: true,
		Why: "tcp_calm traffic with a WAL on every server: the difference to tcp_calm is storage's encode+write+commit cost (no device fsync)"},
	{Name: "tcp_batch", Batch: batchSize,
		Why: "PutBatch/GetBatch of 32 keys: pipelined, so coalescer widths, batch frames and shard parallelism carry the load"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec mirrors one metric entry of BENCHMARK.json; a test keeps
// the two in step. Bound is zero for the ungated per-layer metrics, and
// Layer names the module whose work a per-layer metric measures.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
}

// endToEnd are the gated metrics, printed by every measured run. The
// bounds follow the run-to-run spread measured on the 2-vCPU VM this was
// written on (README.md, "Measured noise floor"): 4–13% on the CPU-bound
// metrics, so 25% and not the 10% ISSUE 11 hoped for.
var endToEnd = []metricSpec{
	{Name: "put_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "get_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "fast_frac", Unit: "ratio", Better: "higher", Bound: 0.02},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the ungated per-layer metrics, printed by the traced run
// (-trace 1) under the module that does the work. "trace" rows are the
// span tree: mean self time per op along the blocking path.
var perLayer = []metricSpec{
	{Layer: "tcpnet", Name: "tcp_rtt_us", Unit: "us", Better: "lower"},
	{Layer: "tcpnet", Name: "frames_per_op", Unit: "count", Better: "lower"},
	{Layer: "wire", Name: "wire_encode_ns", Unit: "ns", Better: "lower"},
	{Layer: "wire", Name: "wire_decode_ns", Unit: "ns", Better: "lower"},
	{Layer: "wire", Name: "frame_bytes_per_op", Unit: "B", Better: "lower"},
	{Layer: "transport", Name: "coalescer_width", Unit: "count", Better: "higher"},
	{Layer: "transport", Name: "coalescer_hop_us", Unit: "us", Better: "lower"},
	{Layer: "node", Name: "steppool_hop_us", Unit: "us", Better: "lower"},
	{Layer: "keyed+core", Name: "server_step_ns", Unit: "ns", Better: "lower"},
	{Layer: "core", Name: "rounds_per_put", Unit: "count", Better: "lower"},
	{Layer: "core", Name: "rounds_per_get", Unit: "count", Better: "lower"},
	{Layer: "core", Name: "timer_wait_ms", Unit: "ms", Better: "lower"},
	{Layer: "storage", Name: "wal_append_us", Unit: "us", Better: "lower"},
	{Layer: "storage", Name: "wal_commit_us", Unit: "us", Better: "lower"},
	{Layer: "storage", Name: "wal_commits_per_put", Unit: "count", Better: "lower"},
	{Layer: "storage", Name: "wal_bytes_per_put", Unit: "B", Better: "lower"},
	{Layer: "kv", Name: "kv_sim_put_us", Unit: "us", Better: "lower"},
	{Layer: "kv", Name: "kv_sim_get_us", Unit: "us", Better: "lower"},
	{Layer: "runtime", Name: "mallocs_per_op", Unit: "count", Better: "lower"},
	{Layer: "runtime", Name: "alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Layer: "trace", Name: "span_send_us", Unit: "us", Better: "lower"},
	{Layer: "trace", Name: "span_step_us", Unit: "us", Better: "lower"},
	{Layer: "trace", Name: "span_wal_us", Unit: "us", Better: "lower"},
	{Layer: "trace", Name: "span_net_queue_us", Unit: "us", Better: "lower"},
	{Layer: "trace", Name: "span_joined_frac", Unit: "ratio", Better: "higher"},
	{Layer: "trace", Name: "span_negative_frac", Unit: "ratio", Better: "lower"},
	{Layer: "trace", Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},
}
