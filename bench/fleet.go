package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"luckystore"
	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/storage"
	"luckystore/internal/tcpnet"
	"luckystore/internal/types"
)

// fleetConfig is the one deployment shape every workload runs:
// S = 2t+b+1 = 3 servers, fw = 0 (so fr = 1: with one server down
// reads stay fast and writes go slow — the paper's trade-off), one
// reader client, library-default timers.
var fleetConfig = luckystore.Config{T: 1, B: 0, Fw: 0, NumReaders: 1}

// fleet is a running in-process deployment: S servers on loopback TCP
// and the client store dialed to them. Measured runs assemble it through
// the public facade (but see listenInternal for the WAL); a traced run
// (tr != nil) rebuilds the same wiring from internal constructors with
// timing decorators at the seams (trace.go).
type fleet struct {
	store   *luckystore.KVStore
	servers []func() error // per-server Close, idempotent
	walRoot string         // "" when mem-only
}

// walSeq numbers WAL roots within the process: the directory name must
// not leak the workload name or seed to the program under test.
var walSeq atomic.Int64

// startFleet listens S servers, dials the store and returns the fleet.
// buildDir is where WAL directories go for durable workloads.
func startFleet(w workload, buildDir string, tr *tracer) (*fleet, error) {
	f := &fleet{}
	if w.Durable {
		f.walRoot = filepath.Join(buildDir, "wal", strconv.Itoa(os.Getpid())+"-"+strconv.FormatInt(walSeq.Add(1), 10))
		if err := os.MkdirAll(f.walRoot, 0o755); err != nil {
			return nil, err
		}
	}
	addrs := make([]string, fleetConfig.S())
	for i := range addrs {
		dir := ""
		if w.Durable {
			dir = filepath.Join(f.walRoot, "s"+strconv.Itoa(i))
		}
		var (
			addr   string
			closer func() error
			err    error
		)
		if tr != nil || w.Durable {
			addr, closer, err = listenInternal(i, dir, tr)
		} else {
			addr, closer, err = listenFacade(i)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("server %d: %w", i, err)
		}
		addrs[i] = addr
		f.servers = append(f.servers, closer)
	}
	var err error
	if tr != nil {
		f.store, err = openTraced(fleetConfig, luckystore.ServerAddrs(addrs), tr)
	} else {
		f.store, err = luckystore.OpenKVTCP(fleetConfig, luckystore.ServerAddrs(addrs))
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("open store: %w", err)
	}
	return f, nil
}

func listenFacade(i int) (string, func() error, error) {
	s, err := luckystore.ListenTCPKV(i, "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	return s.Addr(), s.Close, nil
}

// listenInternal is luckystore.ListenTCPKV rebuilt from the internal
// constructors, for the two things the facade cannot express.
//
// A WAL that does not fsync (dataDir != ""): the benchmark may write
// only inside its checkout, whose disk's fsync time drifts ±18% run to
// run and belongs to the device, not the program. SyncNone keeps
// storage's whole program path — encode, append, write, the commit
// hand-off — and leaves out the device barrier, which the ungated
// wal_commit_us probe reports on its own.
//
// The traced run's decorators and registry (tr != nil): the same
// wiring as WithTCPMetrics, with every shard and the backend wrapped.
func listenInternal(i int, dataDir string, tr *tracer) (addr string, closer func() error, err error) {
	id := types.ServerID(i)
	var (
		sm   *core.ServerMetrics
		dm   *storage.DurableMetrics
		opts []tcpnet.ServerOption
	)
	if tr != nil {
		sm = core.NewServerMetrics(tr.reg)
		dm = storage.NewDurableMetrics(tr.reg)
		opts = append(opts, tcpnet.WithServerMetrics(tcpnet.NewServerMetrics(tr.reg)))
	}
	srv := kv.NewShardedServerAutomatonInstrumented(0, sm)
	shards := srv.Shards()
	var back *storage.File
	if dataDir != "" {
		back, err = storage.NewFile(dataDir, kv.NewStorageAutomaton, storage.WithSyncMode(storage.SyncNone))
		if err != nil {
			return "", nil, fmt.Errorf("storage: %w", err)
		}
		if tr != nil {
			back.SetMetrics(storage.NewFileMetrics(tr.reg))
		}
		if _, err := storage.Recover(back, srv); err != nil {
			_ = back.Close()
			return "", nil, fmt.Errorf("recovery: %w", err)
		}
	}
	for j, sh := range shards {
		var st *shardTrace
		if tr != nil {
			st = tr.shard(i)
		}
		if back != nil {
			var b storage.Backend = back
			if tr != nil {
				b = tracedBackend{Backend: back, st: st}
			}
			d := storage.NewDurable(sh, b, id)
			d.SetMetrics(dm)
			sh = d
		}
		if tr != nil {
			sh = &tracedAutomaton{inner: sh, st: st}
		}
		shards[j] = sh
	}
	inner, err := tcpnet.ListenSharded(id, "127.0.0.1:0", shards, srv.Route(), opts...)
	if err != nil {
		if back != nil {
			_ = back.Close()
		}
		return "", nil, err
	}
	var once sync.Once
	closer = func() error {
		var cerr error
		once.Do(func() {
			cerr = inner.Close()
			if back != nil {
				// Stepping has stopped, so this flush captures every
				// acknowledged operation (the order TCPServer.Close uses).
				if berr := back.Close(); cerr == nil {
					cerr = berr
				}
			}
		})
		return cerr
	}
	return inner.Addr(), closer, nil
}

// CloseServer stops server i; to the clients this is a crash.
func (f *fleet) CloseServer(i int) error { return f.servers[i]() }

// Close tears the fleet down — clients first, so no operation is in
// flight when the servers go — and removes the WAL directories.
func (f *fleet) Close() {
	if f.store != nil {
		f.store.Close()
	}
	for _, c := range f.servers {
		_ = c() // a server closed earlier (tcp_one_down) reports nothing new
	}
	if f.walRoot != "" {
		_ = os.RemoveAll(f.walRoot) // scratch data; a leftover is harmless
	}
}

// setUp starts a fleet, preloads every key (one Put, then one Get per
// key, both checked by the gate) and, for tcp_one_down, closes one
// server. The returned duration is the workload's set-up time: from
// here to the point the first timed operation could start.
func setUp(w workload, buildDir string, tr *tracer, g *gate) (*fleet, time.Duration, error) {
	t0 := time.Now()
	f, err := startFleet(w, buildDir, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := g.preload(f.store); err != nil {
		f.Close()
		return nil, 0, err
	}
	if w.OneDown {
		if err := f.CloseServer(downIndex); err != nil {
			f.Close()
			return nil, 0, fmt.Errorf("close server %d: %w", downIndex, err)
		}
	}
	return f, time.Since(t0), nil
}
