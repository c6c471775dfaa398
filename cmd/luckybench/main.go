// Command luckybench regenerates the paper-reproduction tables: it runs
// the experiments E1–E14 and E16 (one per proposition/theorem/
// proof-figure of the paper, see EXPERIMENTS.md) and prints their
// measured tables.
//
// Usage:
//
//	luckybench             # run everything
//	luckybench -run E5     # one experiment
//	luckybench -markdown   # emit markdown tables (EXPERIMENTS.md rows)
//	luckybench -list       # list experiment ids and titles
//	luckybench -allocs     # allocation/heap report for the hot path
//	luckybench -allocs -json BENCH_core.json  # machine-readable output
//
// Exit status 1 means at least one measured shape diverged from the
// paper's claim (or, with -allocs, that a benchmark failed).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"luckystore/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("luckybench", flag.ContinueOnError)
	var (
		only     = fs.String("run", "", "run a single experiment id (e.g. E5)")
		markdown = fs.Bool("markdown", false, "emit markdown tables")
		list     = fs.Bool("list", false, "list experiment ids")
		allocs   = fs.Bool("allocs", false, "run allocation/heap benchmarks (B/op, allocs/op) instead of experiments")
		jsonOut  = fs.String("json", "", "with -allocs: also write results as JSON to this path")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return 0
	}
	if *allocs {
		return runAllocs(*jsonOut)
	}

	var results []*experiments.Result
	if *only != "" {
		res, err := experiments.Run(*only)
		if err != nil {
			fmt.Fprintf(os.Stderr, "luckybench: %v\n", err)
			return 1
		}
		results = append(results, res)
	} else {
		var err error
		results, err = experiments.All()
		if err != nil {
			fmt.Fprintf(os.Stderr, "luckybench: %v\n", err)
			return 1
		}
	}

	allPass := true
	for _, res := range results {
		if *markdown {
			printMarkdown(res)
		} else {
			fmt.Println(res)
		}
		if !res.Pass {
			allPass = false
		}
	}

	fmt.Printf("\n%d experiments, ", len(results))
	if allPass {
		fmt.Println("all measured shapes match the paper.")
		return 0
	}
	fmt.Println("SOME SHAPES DIVERGED — see FAIL markers above.")
	return 1
}

func printMarkdown(res *experiments.Result) {
	status := "PASS"
	if !res.Pass {
		status = "FAIL"
	}
	fmt.Printf("### %s — %s [%s]\n\n", res.ID, res.Title, status)
	fmt.Printf("Claim: %s\n\n", res.Claim)
	for _, t := range res.Tables {
		fmt.Println(t.Markdown())
	}
	for _, n := range res.Notes {
		fmt.Printf("- note: %s\n", n)
	}
	fmt.Println(strings.Repeat("-", 3))
}
