// Command luckyd runs one storage server of the lucky atomic register
// over TCP.
//
// Usage:
//
//	luckyd -index 0 -listen 127.0.0.1:7000          # single register
//	luckyd -index 0 -listen 127.0.0.1:7000 -kv      # key-value store
//	luckyd -index 0 -listen 127.0.0.1:7000 -kv -shards 8
//	luckyd -index 0 -listen 127.0.0.1:7000 -kv -data /var/lib/lucky/s0
//
// Start 2t+b+1 of these (indexes 0..S-1), then point luckyctl (single
// register) or an OpenKVTCP client (-kv) at them. In -kv mode every key
// is an independent lucky register, stepped across a pool of shard
// workers (-shards; 0 means one per CPU) so independent keys never
// serialize on one lock.
//
// With -admin the server additionally exposes an operational HTTP
// plane: /metrics (Prometheus text: per-key-class service latency,
// WAL fsync latency, shard queue depths, frame counters), /healthz,
// /readyz (probes the data listener end to end), and /debug/stamps
// (the per-key ⟨seq, writer⟩ stamps currently held, walked race-free
// on the shard workers).
//
// With -data the server is durable: it writes a WAL (plus snapshots)
// under the directory before acknowledging, and on startup replays the
// directory — truncating any torn tail a crash left — before accepting
// connections. SIGTERM/SIGINT shut down gracefully: the listener stops
// first, then the WAL flushes and fsyncs, so every acknowledged
// operation is on disk when the process exits and the next start
// recovers it. Without -data, stopping the process is an amnesiac
// restart, which the failure model can only count as Byzantine; with
// -data it is an ordinary crash failure the protocol tolerates for up
// to t servers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"luckystore"
	"luckystore/internal/admin"
)

func main() {
	os.Exit(run(os.Args[1:], nil, nil))
}

// run starts the daemon and blocks until a termination signal (or, in
// tests, until stop closes). A non-nil ready receives the bound listen
// address once the server is up.
func run(args []string, ready chan<- string, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("luckyd", flag.ContinueOnError)
	var (
		index     = fs.Int("index", 0, "server index i (process id becomes s<i>)")
		listen    = fs.String("listen", "127.0.0.1:0", "TCP listen address")
		kvMode    = fs.Bool("kv", false, "serve the key-value store (one lucky register per key) instead of the single register")
		shards    = fs.Int("shards", 0, "shard workers stepping the KV registers; 0 means one per CPU (requires -kv)")
		dataDir   = fs.String("data", "", "data directory for the WAL and snapshots; empty keeps state in memory only")
		adminAddr = fs.String("admin", "", "HTTP admin listen address serving /metrics, /healthz, /readyz, /debug/stamps; empty disables")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *index < 0 {
		fmt.Fprintln(os.Stderr, "luckyd: -index must be non-negative")
		return 2
	}
	if *shards != 0 && !*kvMode {
		fmt.Fprintln(os.Stderr, "luckyd: -shards requires -kv (a single register has no keys to shard)")
		return 2
	}

	var (
		srv *luckystore.TCPServer
		err error
	)
	var opts []luckystore.TCPOption
	if *dataDir != "" {
		opts = append(opts, luckystore.WithTCPDataDir(*dataDir))
	}
	var reg *luckystore.MetricsRegistry
	if *adminAddr != "" {
		reg = luckystore.NewMetricsRegistry()
		opts = append(opts, luckystore.WithTCPMetrics(reg))
	}
	if *kvMode {
		srv, err = luckystore.ListenTCPKV(*index, *listen, append(opts, luckystore.WithTCPShards(*shards))...)
	} else {
		srv, err = luckystore.ListenTCP(*index, *listen, opts...)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "luckyd: %v\n", err)
		return 1
	}
	var adm *admin.Server
	if *adminAddr != "" {
		adm, err = admin.Listen(*adminAddr, admin.Options{
			Registry: reg,
			// Readiness probes the data plane end to end: the listener
			// must still accept a connection.
			Ready: func() error {
				c, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
				if err != nil {
					return err
				}
				return c.Close()
			},
			Stamps: srv.WriteStamps,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "luckyd: %v\n", err)
			_ = srv.Close()
			return 1
		}
		log.Printf("luckyd: admin plane on http://%s", adm.Addr())
	}
	mode := "register"
	if *kvMode {
		mode = "kv"
	}
	durability := "in-memory"
	if *dataDir != "" {
		durability = "durable in " + *dataDir
	}
	log.Printf("luckyd: %s server %s listening on %s (%s)", mode, srv.ID(), srv.Addr(), durability)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	if ready != nil {
		ready <- srv.Addr()
	}
	select {
	case <-sig:
	case <-stop:
	}
	log.Printf("luckyd: shutting down %s", srv.ID())
	if adm != nil {
		_ = adm.Close()
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "luckyd: close: %v\n", err)
		return 1
	}
	return 0
}
