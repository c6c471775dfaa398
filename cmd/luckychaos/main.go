// Command luckychaos runs named chaos scenarios against a freshly
// built deployment and verifies the recorded history with the checker.
//
// Usage:
//
//	luckychaos -list
//	luckychaos -scenario rolling-partition -deploy core -seed 7 -duration 2s
//	luckychaos -scenario all -deploy all -seed 1 -duration 800ms -history out/
//
// Every schedule is a pure function of (seed, deployment shape,
// duration): rerunning with the same flags replays the exact fault
// sequence, which is how a CI chaos-smoke failure is reproduced
// locally — take the seed from the failure artifact and run
// `luckychaos -scenario <name> -deploy <kind> -seed <s>`.
//
// Exit status: 0 when every run is checker-clean, 1 when any run saw a
// consistency violation or operation error, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"luckystore/internal/chaos"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("luckychaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "all", "scenario name, or \"all\"")
		deploy   = fs.String("deploy", "core", "deployment kind ("+strings.Join(chaos.Kinds(), "|")+"), or \"all\"")
		seed     = fs.Int64("seed", 1, "schedule seed; same seed replays the same fault sequence")
		duration = fs.Duration("duration", 2*time.Second, "fault window per run (plus settle time)")
		readers  = fs.Int("readers", 3, "reader clients")
		history  = fs.String("history", "", "directory to write per-run JSON reports with full histories (for failure artifacts)")
		verbose  = fs.Bool("v", false, "log every schedule event as it is applied")
		list     = fs.Bool("list", false, "list scenarios and deployments, then exit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *list {
		fmt.Fprintln(stdout, "scenarios:")
		for _, sc := range chaos.Scenarios {
			fmt.Fprintf(stdout, "  %-22s %s\n", sc.Name, sc.Description)
		}
		fmt.Fprintf(stdout, "deployments: %v\n", chaos.Kinds())
		return 0
	}

	var scenarios []chaos.Scenario
	if *scenario == "all" {
		scenarios = chaos.Scenarios
	} else {
		sc, err := chaos.Lookup(*scenario)
		if err != nil {
			fmt.Fprintf(stderr, "luckychaos: %v\n", err)
			return 2
		}
		scenarios = []chaos.Scenario{sc}
	}
	kinds := chaos.Kinds()
	if *deploy != "all" {
		if !slices.Contains(kinds, *deploy) {
			fmt.Fprintf(stderr, "luckychaos: unknown deployment %q (%s|all)\n", *deploy, strings.Join(kinds, "|"))
			return 2
		}
		kinds = []string{*deploy}
	}
	if *history != "" {
		if err := os.MkdirAll(*history, 0o755); err != nil {
			fmt.Fprintf(stderr, "luckychaos: %v\n", err)
			return 2
		}
	}

	failures := 0
	for _, kind := range kinds {
		for _, sc := range scenarios {
			if code := runOne(stdout, stderr, kind, sc, *seed, *duration, *readers, *history, *verbose); code != 0 {
				failures++
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "luckychaos: %d run(s) failed\n", failures)
		return 1
	}
	return 0
}

func runOne(stdout, stderr *os.File, kind string, sc chaos.Scenario, seed int64, duration time.Duration, readers int, historyDir string, verbose bool) int {
	d, err := chaos.Open(kind, readers, max(1, sc.Writers))
	if err != nil {
		fmt.Fprintf(stderr, "luckychaos: open %s: %v\n", kind, err)
		return 2
	}
	defer d.Close()

	opts := chaos.Options{}
	if verbose {
		opts.Log = stdout
	}
	rep, err := chaos.Run(d, sc, seed, duration, opts)
	if err != nil {
		fmt.Fprintf(stderr, "luckychaos: run %s/%s: %v\n", kind, sc.Name, err)
		return 1
	}

	status := "clean"
	if !rep.Clean {
		status = "FAILED"
	}
	fmt.Fprintf(stdout, "%-8s %-22s seed=%-4d ops=%-6d writes=%-5d reads=%-6d fast=%.2f %s\n",
		kind, sc.Name, seed, rep.Ops, rep.Writes, rep.Reads, rep.FastFrac, status)
	if rep.OpError != "" {
		fmt.Fprintf(stderr, "  op error: %s\n", rep.OpError)
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(stderr, "  violation: %s\n", v)
	}
	for _, ev := range rep.Events {
		if ev.Err != "" {
			fmt.Fprintf(stderr, "  event error: %s: %s\n", ev.Action, ev.Err)
		}
	}

	if historyDir != "" {
		rep.AttachHistory()
		name := fmt.Sprintf("%s-%s-seed%d.json", sc.Name, kind, seed)
		f, err := os.Create(filepath.Join(historyDir, name))
		if err != nil {
			fmt.Fprintf(stderr, "luckychaos: history: %v\n", err)
			return 1
		}
		werr := rep.WriteJSON(f)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			fmt.Fprintf(stderr, "luckychaos: history write: %v %v\n", werr, cerr)
			return 1
		}
	}
	if !rep.Clean {
		return 1
	}
	return 0
}
