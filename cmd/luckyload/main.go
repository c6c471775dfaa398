// Command luckyload is the sustained-load SLO harness: it drives
// traffic against a lucky deployment, optionally scrapes admin planes
// mid-run to assert the telemetry is live, optionally overlays a seeded
// chaos schedule, and emits a BENCH_slo.json artifact with throughput,
// latency percentiles (p50/p95/p99/p99.9), the fast-path fraction, and
// rounds per operation — every row summarized through the same
// workload.Summarize path the chaos engine reports with, so calm and
// fault-injected numbers are directly comparable.
//
// Two ways to reach a system:
//
//	# external: an already-running cluster (e.g. luckyd -kv -admin ...)
//	luckyload -addrs h1:7000,h2:7000,h3:7000 -t 1 -b 0 \
//	          -duration 10s -scrape http://h1:9100 -out BENCH_slo.json
//
//	# selfhost: spin the deployment up in-process (chaos adapters)
//	luckyload -deploy tcpkv -duration 5s -chaos rolling-partitions
//
// The generator is closed-loop by default (each actor paces its own
// operations, workload.Continuous); -loop open switches to a fixed
// offered rate with shed accounting (workload.OpenLoop), the
// coordinated-omission-free shape an SLO wants.
//
// Exit status: 0 on success; 1 when traffic errored, a -scrape
// assertion failed, or a chaos row recorded consistency violations.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"luckystore"
	"luckystore/internal/admin"
	"luckystore/internal/chaos"
	"luckystore/internal/checker"
	"luckystore/internal/workload"
)

// sloReport is the BENCH_slo.json artifact.
type sloReport struct {
	Bench      string   `json:"bench"`
	Mode       string   `json:"mode"` // "external" | "selfhost"
	Deploy     string   `json:"deploy,omitempty"`
	Loop       string   `json:"loop"` // "closed" | "open"
	Seed       int64    `json:"seed"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Rows       []sloRow `json:"rows"`
}

// sloRow is one phase: calm traffic, or traffic under a named chaos
// scenario.
type sloRow struct {
	Phase  string          `json:"phase"`
	Result workload.Result `json:"result"`
	// WritesBy counts the phase's completed writes by writer identity.
	WritesBy   map[luckystore.ProcID]int `json:"writes_by_writer,omitempty"`
	OpError    string                    `json:"op_error,omitempty"`
	Violations []string                  `json:"violations,omitempty"`
	Clean      bool                      `json:"clean"`
	Scrapes    []scrapeResult            `json:"scrapes,omitempty"`
}

// scrapeResult is one admin plane probed mid-run.
type scrapeResult struct {
	URL            string `json:"url"`
	Healthz        bool   `json:"healthz"`
	MetricsNonzero bool   `json:"metrics_nonzero"`
	Err            string `json:"err,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("luckyload", flag.ContinueOnError)
	var (
		addrs     = fs.String("addrs", "", "comma-separated server addresses of a running cluster; empty self-hosts -deploy in-process")
		tFlag     = fs.Int("t", 1, "crash-fault budget t of the external cluster (with -addrs)")
		bFlag     = fs.Int("b", 0, "Byzantine budget b of the external cluster (with -addrs)")
		readers   = fs.Int("readers", 2, "reader clients")
		writers   = fs.Int("writers", 1, "contending writer identities (-loop closed only)")
		deploy    = fs.String("deploy", "tcpkv", "selfhost deployment kind: "+strings.Join(chaos.Kinds(), "|"))
		duration  = fs.Duration("duration", 5*time.Second, "length of each traffic phase")
		seed      = fs.Int64("seed", 1, "seed for key choices and chaos schedules")
		keys      = fs.Int("keys", 16, "distinct keys to exercise")
		hot       = fs.Float64("hot", 0, "probability a read targets the hottest key")
		valsize   = fs.Int("valsize", 0, "padding size of written values")
		loop      = fs.String("loop", "closed", "generator shape: closed (self-paced actors) | open (fixed offered rate)")
		rate      = fs.Float64("rate", 2000, "offered ops/sec in -loop open")
		writeFrac = fs.Float64("writefrac", 0.5, "write fraction of arrivals in -loop open")
		writePace = fs.Duration("writepace", 0, "per-writer pace in -loop closed (0: workload default)")
		readPace  = fs.Duration("readpace", 0, "per-reader pace in -loop closed (0: workload default)")
		chaosList = fs.String("chaos", "", "comma-separated chaos scenarios to overlay as extra phases (selfhost only): "+strings.Join(chaos.Names(), "|"))
		scrape    = fs.String("scrape", "", "comma-separated admin base URLs to probe mid-run (/healthz and /metrics asserted)")
		adminAddr = fs.String("admin", "", "host an admin plane here exposing this harness's client-side registry")
		out       = fs.String("out", "", "write the JSON artifact to this path (empty: stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *loop != "closed" && *loop != "open" {
		fmt.Fprintln(os.Stderr, "luckyload: -loop must be closed or open")
		return 2
	}
	if *loop == "open" && *writers > 1 {
		fmt.Fprintln(os.Stderr, "luckyload: -writers > 1 needs -loop closed (the open loop runs one writer per key)")
		return 2
	}
	if *keys < 1 {
		*keys = 1
	}
	keyList := make([]string, *keys)
	for i := range keyList {
		keyList[i] = fmt.Sprintf("key-%03d", i)
	}
	scrapeURLs := splitList(*scrape)

	rep := &sloReport{
		Bench: "slo", Loop: *loop, Seed: *seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	// Build the system under test.
	var (
		driver workload.Driver
		reg    *luckystore.MetricsRegistry
	)
	if *addrs != "" {
		rep.Mode = "external"
		list := splitList(*addrs)
		cfg := luckystore.Config{
			T: *tFlag, B: *bFlag, NumReaders: *readers, Writers: *writers,
			RoundTimeout: 100 * time.Millisecond, OpTimeout: 30 * time.Second,
		}
		if len(list) != cfg.S() {
			fmt.Fprintf(os.Stderr, "luckyload: %d addresses for S=2t+b+1=%d\n", len(list), cfg.S())
			return 2
		}
		reg = luckystore.NewMetricsRegistry()
		store, err := luckystore.OpenKVTCP(cfg, luckystore.ServerAddrs(list), luckystore.WithKVMetrics(reg))
		if err != nil {
			fmt.Fprintf(os.Stderr, "luckyload: %v\n", err)
			return 1
		}
		defer store.Close()
		driver = workload.KVDriver{S: store}
		if *chaosList != "" {
			fmt.Fprintln(os.Stderr, "luckyload: -chaos needs a selfhost deployment (drop -addrs)")
			return 2
		}
	} else {
		rep.Mode, rep.Deploy = "selfhost", *deploy
		d, err := chaos.Open(*deploy, *readers, *writers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "luckyload: %v\n", err)
			return 1
		}
		defer d.Close()
		driver = d
	}

	if *adminAddr != "" {
		adm, err := admin.Listen(*adminAddr, admin.Options{Registry: reg})
		if err != nil {
			fmt.Fprintf(os.Stderr, "luckyload: %v\n", err)
			return 1
		}
		defer adm.Close()
		log.Printf("luckyload: admin plane on http://%s", adm.Addr())
		if reg != nil {
			scrapeURLs = append(scrapeURLs, "http://"+adm.Addr())
		}
	}

	failed := false

	// Calm phase: sustained traffic on the healthy system, scraped at
	// the midpoint so the asserted telemetry reflects live load.
	calm, err := runCalm(driver, calmParams{
		keys: keyList, seed: *seed, hot: *hot, valsize: *valsize,
		loop: *loop, rate: *rate, writeFrac: *writeFrac,
		writePace: *writePace, readPace: *readPace, writers: *writers,
		duration: *duration, scrapeURLs: scrapeURLs,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "luckyload: calm phase: %v\n", err)
		return 1
	}
	if calm.OpError != "" || !scrapesOK(calm.Scrapes) {
		failed = true
	}
	rep.Rows = append(rep.Rows, calm)
	log.Printf("luckyload: calm: %d ops, %.0f ops/s, fast %.3f, p99 %s",
		calm.Result.Ops, calm.Result.Throughput, calm.Result.FastFrac, calm.Result.Latency.P99)

	// Chaos phases: the engine owns traffic and fault timeline; each
	// row reuses its shared-path summary. Every row gets a fresh fleet:
	// the per-phase checker history must account for every stamp a read
	// can return, and a deployment that already served an earlier phase
	// carries installed stamps the new history cannot bind (a read
	// returning one would be flagged as a no-creation violation).
	for _, name := range splitList(*chaosList) {
		sc, err := chaos.Lookup(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "luckyload: %v\n", err)
			return 2
		}
		cdep, err := chaos.Open(*deploy, *readers, *writers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "luckyload: chaos %s: %v\n", name, err)
			return 1
		}
		scrapeDone := scrapeAt(*duration/2, scrapeURLs)
		crep, err := chaos.Run(cdep, sc, *seed, *duration, chaos.Options{})
		cdep.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "luckyload: chaos %s: %v\n", name, err)
			return 1
		}
		row := sloRow{
			Phase:      "chaos:" + name,
			Result:     crep.Traffic,
			WritesBy:   writesBy(crep.RecordedOps()),
			OpError:    crep.OpError,
			Violations: crep.Violations,
			Clean:      crep.Clean,
			Scrapes:    <-scrapeDone,
		}
		if len(row.Violations) > 0 || !scrapesOK(row.Scrapes) {
			failed = true
		}
		rep.Rows = append(rep.Rows, row)
		log.Printf("luckyload: %s: %d ops, fast %.3f, p99 %s, clean=%v",
			row.Phase, row.Result.Ops, row.Result.FastFrac, row.Result.Latency.P99, row.Clean)
	}

	// Artifact.
	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "luckyload: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "luckyload: %v\n", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// calmParams bundles the knobs of the calm traffic phase.
type calmParams struct {
	keys                []string
	seed                int64
	hot                 float64
	valsize             int
	loop                string
	rate, writeFrac     float64
	writePace, readPace time.Duration
	writers             int
	duration            time.Duration
	scrapeURLs          []string
}

// runCalm drives one traffic phase and scrapes the admin planes at its
// midpoint. The returned row carries op errors in-band; the error
// return is for generator misconfiguration only.
func runCalm(d workload.Driver, p calmParams) (sloRow, error) {
	ctx, cancel := context.WithTimeout(context.Background(), p.duration)
	defer cancel()
	scrapeDone := scrapeAt(p.duration/2, p.scrapeURLs)

	start := time.Now()
	var (
		rec *checker.Recorder
		err error
	)
	if p.loop == "open" {
		gen := workload.OpenLoop{
			Keys: p.keys, Rate: p.rate, WriteFrac: p.writeFrac,
			ValueSize: p.valsize, Seed: p.seed, HotFrac: p.hot,
		}
		rec, err = gen.Run(ctx, d)
	} else {
		gen := workload.Continuous{
			Keys: p.keys, Writers: p.writers, ValueSize: p.valsize,
			Seed: p.seed, HotFrac: p.hot,
			WritePace: p.writePace, ReadPace: p.readPace,
		}
		rec, err = gen.Run(ctx, d)
	}
	elapsed := time.Since(start)
	if rec == nil {
		return sloRow{}, err
	}
	row := sloRow{
		Phase:    "calm",
		Result:   workload.Summarize(rec.Ops(), elapsed),
		WritesBy: writesBy(rec.Ops()),
		Scrapes:  <-scrapeDone,
	}
	if err != nil {
		row.OpError = err.Error()
	}
	row.Clean = err == nil
	return row, nil
}

// writesBy counts the completed writes in ops by writer identity.
func writesBy(ops []checker.Op) map[luckystore.ProcID]int {
	n := make(map[luckystore.ProcID]int)
	for _, op := range ops {
		if op.Kind == checker.KindWrite && op.Err == nil {
			n[op.Client]++
		}
	}
	return n
}

// scrapeAt probes the admin URLs after the delay and delivers the
// results; with no URLs it delivers nil immediately. It never blocks
// the traffic being measured.
func scrapeAt(delay time.Duration, urls []string) <-chan []scrapeResult {
	done := make(chan []scrapeResult, 1)
	if len(urls) == 0 {
		done <- nil
		return done
	}
	go func() {
		time.Sleep(delay)
		out := make([]scrapeResult, 0, len(urls))
		for _, u := range urls {
			out = append(out, scrapeOne(u))
		}
		done <- out
	}()
	return done
}

// scrapeOne asserts one admin plane is alive under load: /healthz
// answers 200 and /metrics exposes at least one nonzero lucky_ sample.
func scrapeOne(base string) scrapeResult {
	res := scrapeResult{URL: base}
	cl := &http.Client{Timeout: 5 * time.Second}

	hr, err := cl.Get(base + "/healthz")
	if err != nil {
		res.Err = err.Error()
		return res
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	res.Healthz = hr.StatusCode == http.StatusOK

	mr, err := cl.Get(base + "/metrics")
	if err != nil {
		res.Err = err.Error()
		return res
	}
	body, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		res.Err = err.Error()
		return res
	}
	if mr.StatusCode == http.StatusOK {
		res.MetricsNonzero = hasNonzeroLuckySample(string(body))
	}
	return res
}

// hasNonzeroLuckySample reports whether any lucky_-prefixed sample line
// carries a value other than 0 — the cheap "telemetry is actually
// counting" assertion.
func hasNonzeroLuckySample(body string) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "lucky_") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		switch v := strings.TrimSpace(line[i+1:]); v {
		case "", "0", "0.0", "+Inf", "-Inf", "NaN":
		default:
			return true
		}
	}
	return false
}

// scrapesOK reports whether every scrape passed both assertions.
func scrapesOK(scrapes []scrapeResult) bool {
	for _, s := range scrapes {
		if !s.Healthz || !s.MetricsNonzero || s.Err != "" {
			return false
		}
	}
	return true
}

// splitList splits a comma list, dropping empty elements.
func splitList(v string) []string {
	var out []string
	for _, s := range strings.Split(v, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}
