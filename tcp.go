package luckystore

import (
	"fmt"
	"io"
	"strconv"

	"luckystore/internal/core"
	"luckystore/internal/keyed"
	"luckystore/internal/kv"
	"luckystore/internal/metrics"
	"luckystore/internal/node"
	"luckystore/internal/storage"
	"luckystore/internal/tcpnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// WireFormatVersion is the version byte of the binary wire format TCP
// frames carry (DESIGN.md §4). Peers reject frames with any other
// version, so a cluster must be upgraded together when the format
// evolves; exposing the constant lets deployment tooling check
// compatibility before rolling.
const WireFormatVersion = wire.FormatVersion

// TCPServer is one storage server listening on a real TCP socket.
type TCPServer struct {
	inner *tcpnet.Server
	back  storage.Backend      // non-nil when disk-backed (WithTCPDataDir)
	srv   *keyed.ShardedServer // keyed state, nil for the single-register ListenTCP
	reg   *core.Server         // the single register, nil for ListenTCPKV
}

// Addr returns the listening address (host:port).
func (s *TCPServer) Addr() string { return s.inner.Addr() }

// ID returns the server's process id ("s0", "s1", …).
func (s *TCPServer) ID() ProcID { return s.inner.ID() }

// Close stops the server; to the rest of the cluster this is a crash.
// A disk-backed server closes its WAL after the listener — stepping
// has stopped by then (the listener's Close closes the step pool, which
// waits out its shard workers and any step a connection's read
// goroutine is running), so the final flush+fsync captures every
// acknowledged operation.
func (s *TCPServer) Close() error {
	err := s.inner.Close()
	if s.back != nil {
		if cerr := s.back.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// WriteStamps writes the server's live register stamps, one line per
// instantiated register: "key seq writer" (the single-register
// ListenTCP server prints key "-"). A sharded store is walked
// race-free without quiescing: each shard is visited on its own worker
// goroutine (node.StepPool.Do), the only goroutine allowed to touch
// its unlocked register map. This backs the admin API's /debug/stamps.
func (s *TCPServer) WriteStamps(w io.Writer) error {
	if s.srv == nil {
		_, wv, _ := s.reg.State() // the register locks internally
		_, err := fmt.Fprintf(w, "- %d %d\n", wv.TS, wv.W)
		return err
	}
	pool := s.inner.Pool()
	var werr error
	for i := 0; i < s.srv.NumShards(); i++ {
		ok := pool.Do(i, func(node.Automaton) {
			s.srv.RangeShard(i, func(key string, reg node.Automaton) {
				if werr != nil {
					return
				}
				cs, isReg := reg.(*core.Server)
				if !isReg {
					return
				}
				_, wv, _ := cs.State()
				_, werr = fmt.Fprintf(w, "%s %d %d\n", key, wv.TS, wv.W)
			})
		})
		if !ok {
			return fmt.Errorf("luckystore stamps: server closed")
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// ListenTCP starts storage server i on addr (use "127.0.0.1:0" to pick
// a free port). A production deployment runs one of these per machine;
// cmd/luckyd wraps it as a daemon. With WithTCPDataDir the server
// recovers its register from the directory's WAL before listening and
// writes through it before acknowledging.
func ListenTCP(i int, addr string, opts ...TCPOption) (*TCPServer, error) {
	var o tcpOptions
	for _, opt := range opts {
		opt(&o)
	}
	a := core.NewServer()
	if o.metrics != nil {
		a.SetMetrics(core.NewServerMetrics(o.metrics))
	}
	inner, back, err := o.listen(i, addr, func() storage.Automaton { return core.NewServer() },
		a, []node.Automaton{a}, func(wire.Message) int { return 0 })
	if err != nil {
		return nil, err
	}
	return &TCPServer{inner: inner, back: back, reg: a}, nil
}

// ServerAddrs builds the address map clients need from an ordered list
// of server addresses (index i becomes server "si").
func ServerAddrs(addrs []string) map[ProcID]string {
	m := make(map[ProcID]string, len(addrs))
	for i, a := range addrs {
		m[types.ServerID(i)] = a
	}
	return m
}

// NewTCPWriter connects the writer client to a TCP cluster. The
// returned closer tears the connections down.
func NewTCPWriter(cfg Config, servers map[ProcID]string) (*Writer, io.Closer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(servers) != cfg.S() {
		return nil, nil, fmt.Errorf("luckystore: %d server addresses for S=%d", len(servers), cfg.S())
	}
	ep, err := tcpnet.Dial(types.WriterID(), servers)
	if err != nil {
		return nil, nil, err
	}
	return core.NewWriter(cfg, types.WriterID(), ep), ep, nil
}

// NewTCPReader connects reader client i to a TCP cluster. The returned
// closer tears the connections down.
func NewTCPReader(cfg Config, i int, servers map[ProcID]string) (*Reader, io.Closer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(servers) != cfg.S() {
		return nil, nil, fmt.Errorf("luckystore: %d server addresses for S=%d", len(servers), cfg.S())
	}
	id := types.ReaderID(i)
	ep, err := tcpnet.Dial(id, servers)
	if err != nil {
		return nil, nil, err
	}
	return core.NewReader(cfg, id, ep), ep, nil
}

// TCPOption configures ListenTCP and ListenTCPKV.
type TCPOption func(*tcpOptions)

type tcpOptions struct {
	shards  int
	dataDir string
	metrics *metrics.Registry
}

// listen serves server i on addr: the durable-server recipe
// (storage.RecoverShards) recovers a — its shards, routed by route —
// from the file backend WithTCPDataDir names, which factory's automata
// compact; the shards then step behind a sharded listener. The backend
// is nil without a data directory.
func (o *tcpOptions) listen(i int, addr string, factory func() storage.Automaton, a node.Automaton, shards []node.Automaton, route func(wire.Message) int) (*tcpnet.Server, storage.Backend, error) {
	var back storage.Backend
	var dm *storage.DurableMetrics
	if o.dataDir != "" {
		f, err := storage.NewFile(o.dataDir, factory)
		if err != nil {
			return nil, nil, fmt.Errorf("luckystore server %d storage: %w", i, err)
		}
		if o.metrics != nil {
			f.SetMetrics(storage.NewFileMetrics(o.metrics))
			dm = storage.NewDurableMetrics(o.metrics)
		}
		back = f
	}
	shards, err := storage.RecoverShards(back, a, shards, types.ServerID(i), dm)
	if err != nil {
		err = fmt.Errorf("luckystore server %d recovery: %w", i, err)
	}
	var inner *tcpnet.Server
	if err == nil {
		inner, err = tcpnet.ListenSharded(types.ServerID(i), addr, shards, route, o.serverOptions()...)
	}
	if err != nil && back != nil {
		_ = back.Close()
	}
	return inner, back, err
}

// serverOptions translates the TCP options into tcpnet listener options.
func (o *tcpOptions) serverOptions() []tcpnet.ServerOption {
	if o.metrics == nil {
		return nil
	}
	return []tcpnet.ServerOption{tcpnet.WithServerMetrics(tcpnet.NewServerMetrics(o.metrics))}
}

// WithTCPMetrics threads live instrumentation through the server into
// reg: request/reply frame counters, per-key-class shard service
// latency, per-shard queue depths, register message counters, and —
// with WithTCPDataDir — WAL append/fsync latency and group-commit
// batch sizes. cmd/luckyd serves the registry on its admin listener's
// /metrics (DESIGN.md §13).
func WithTCPMetrics(reg *metrics.Registry) TCPOption {
	return func(o *tcpOptions) { o.metrics = reg }
}

// WithTCPShards sets how many shard workers the TCP KV server steps its
// per-key registers on. Values below 1 mean the default (one per CPU,
// capped — see kv.DefaultShards). Ignored by ListenTCP.
func WithTCPShards(n int) TCPOption {
	return func(o *tcpOptions) { o.shards = n }
}

// WithTCPDataDir makes the server durable: its WAL and snapshots live
// in dir (created if absent, one directory per server process). On
// startup the server replays the directory's records — truncating a
// torn tail left by a crash — before accepting connections, and every
// state-mutating message is fsynced (group-committed) before its reply
// leaves. Without this option the server keeps state only in memory
// and a process death is an amnesiac (Byzantine-counted) restart.
func WithTCPDataDir(dir string) TCPOption {
	return func(o *tcpOptions) { o.dataDir = dir }
}

// ListenTCPKV starts a key-value storage server on addr: one lucky
// register per key, multiplexed on one socket. Pair it with OpenKVTCP
// on the client side.
//
// The server steps its keys across a pool of shard workers
// (WithTCPShards; defaults to one per CPU), so independent keys —
// including keys from different connections — never serialize on one
// automaton pump; see tcpnet.ListenSharded for the pipeline.
func ListenTCPKV(i int, addr string, opts ...TCPOption) (*TCPServer, error) {
	var o tcpOptions
	for _, opt := range opts {
		opt(&o)
	}
	var sm *core.ServerMetrics
	if o.metrics != nil {
		sm = core.NewServerMetrics(o.metrics)
	}
	srv := kv.NewShardedServerAutomatonInstrumented(o.shards, sm)
	// Replay routes through the sharded server's single-goroutine StepAppend
	// before any shard worker exists, then every shard writes through
	// the one backend (group-committed fsyncs).
	inner, back, err := o.listen(i, addr, kv.NewStorageAutomaton, srv, srv.Shards(), srv.Route())
	if err != nil {
		return nil, err
	}
	if o.metrics != nil {
		// Per-shard queue depth: the live backpressure signal, one gauge
		// per shard worker (DESIGN.md §13).
		pool := inner.Pool()
		for idx := range pool.NumShards() {
			o.metrics.GaugeFunc("lucky_tcp_shard_queue_depth",
				"Step jobs (runs: one per request frame and shard it touches, however many messages) queued per shard worker, not yet stepped.",
				func() int64 { return int64(pool.QueueLen(idx)) },
				metrics.L("shard", strconv.Itoa(idx)))
		}
	}
	return &TCPServer{inner: inner, back: back, srv: srv}, nil
}

// OpenKVTCP connects the client side of a key-value store to a TCP
// cluster of ListenTCPKV servers: one writer connection plus
// cfg.NumReaders reader connections. The returned store owns the
// connections and closes them on Close.
// A store opened with WithKVMetrics additionally instruments the TCP
// endpoints it dials (frame counters and redials, by role).
func OpenKVTCP(cfg Config, servers map[ProcID]string, opts ...KVOption) (*KVStore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(servers) != cfg.S() {
		return nil, fmt.Errorf("luckystore: %d server addresses for S=%d", len(servers), cfg.S())
	}
	var wcm, rcm *tcpnet.ClientMetrics
	if reg := kv.MetricsRegistry(opts...); reg != nil {
		wcm = tcpnet.NewClientMetrics(reg, "writer")
		rcm = tcpnet.NewClientMetrics(reg, "reader")
	}
	writerEP, err := tcpnet.Dial(types.WriterID(), servers, clientOptions(wcm)...)
	if err != nil {
		return nil, err
	}
	readerEPs := make([]transport.Endpoint, cfg.NumReaders)
	for i := range readerEPs {
		ep, err := tcpnet.Dial(types.ReaderID(i), servers, clientOptions(rcm)...)
		if err != nil {
			_ = writerEP.Close()
			for j := 0; j < i; j++ {
				_ = readerEPs[j].Close()
			}
			return nil, err
		}
		readerEPs[i] = ep
	}
	return kv.OpenWithEndpoints(cfg, writerEP, readerEPs, opts...)
}

// clientOptions translates an optional client-metrics handle into
// tcpnet dial options.
func clientOptions(m *tcpnet.ClientMetrics) []tcpnet.ClientOption {
	if m == nil {
		return nil
	}
	return []tcpnet.ClientOption{tcpnet.WithClientMetrics(m)}
}
