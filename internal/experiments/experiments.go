// Package experiments reproduces every claim of the paper's evaluation
// as a measured experiment: one experiment per proposition/theorem/
// proof-figure, each emitting the table that EXPERIMENTS.md records.
// cmd/luckybench runs them all; bench_test.go wraps each one as a Go
// benchmark.
//
// The experiment index (ids E1–E14 and E16) is EXPERIMENTS.md "Inventory".
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Result is the outcome of one experiment.
type Result struct {
	ID    string
	Title string
	// Claim quotes the paper statement the experiment reproduces.
	Claim string
	// Tables hold the measured rows.
	Tables []*Table
	// Pass reports whether the measured shape matches the paper.
	Pass bool
	// Notes carry free-form observations (substitutions, caveats).
	Notes []string
}

// String renders the result for terminal output.
func (r *Result) String() string {
	var b strings.Builder
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "=== %s: %s [%s]\n", r.ID, r.Title, status)
	fmt.Fprintf(&b, "Claim: %s\n", r.Claim)
	for _, t := range r.Tables {
		b.WriteByte('\n')
		b.WriteString(t.String())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is one experiment entry point.
type Runner func() (*Result, error)

// registry maps experiment ids to runners.
var registry = map[string]Runner{
	"E1":  E1FastWrites,
	"E2":  E2FastReads,
	"E3":  E3SlowPaths,
	"E4":  E4Tradeoff,
	"E5":  E5UpperBound,
	"E6":  E6TradingReads,
	"E7":  E7WriteBound,
	"E8":  E8TwoPhase,
	"E9":  E9Regular,
	"E10": E10Ghost,
	"E11": E11Baselines,
	"E12": E12Latency,
	"E13": E13MultiWriter,
	"E14": E14MWReads,
	"E16": E16SpecFastPath,
}

// IDs returns the experiment ids in run order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// Numeric sort: E2 before E10.
		return idNum(ids[i]) < idNum(ids[j])
	})
	return ids
}

func idNum(id string) int {
	var n int
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// Run executes the experiment with the given id.
func Run(id string) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(IDs(), " "))
	}
	return r()
}

// All runs every experiment in order, stopping at the first harness
// error (a failing *claim* is reported in Result.Pass, not as an
// error).
func All() ([]*Result, error) {
	var out []*Result
	for _, id := range IDs() {
		res, err := Run(id)
		if err != nil {
			return out, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, res)
	}
	return out, nil
}
