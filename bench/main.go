// Command bench is the repository's one benchmark (bench/README.md):
// four loopback-TCP workloads against an in-process fleet of three
// servers, gated end-to-end metrics, per-layer probes and an outside-in
// traced run.
//
//	bench -workload tcp_calm -seed 1 -seconds 20 -trace 0   one measured run (what BENCHMARK.json's command runs)
//	bench -workload tcp_calm -seed 1 -seconds 20 -trace 1   one traced run with the layer probes
//	bench                                                   the measured suite, all four workloads
//	bench -trace 1                                          the traced suite
//	bench -probes                                           the layer probes alone
//	bench -agree                                            the measured suite twice, compared against the bounds
//
// The last line of standard output of a run is one JSON object:
// correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all four in turn)")
		seed    = flag.Int64("seed", 1, "seed of the benchmark's key-choice PRNG")
		seconds = flag.Float64("seconds", 20, "measured window per workload; a traced run splits it between its windows and the probes")
		trace   = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		probes  = flag.Bool("probes", false, "run only the per-layer probes, about a second each")
		agree   = flag.Bool("agree", false, "run the measured suite twice and fail if a gated metric differs by more than its bound")
		scratch = flag.String("scratch", ".bench_build", "directory for WAL files")
	)
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace, *probes, *agree, *scratch); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose result line was printed with
// correct=false.
var errIncorrect = errors.New("incorrect results (see the result line)")

func run(out io.Writer, name string, seed int64, seconds float64, trace int, probes, agree bool, scratch string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	o := runOpts{seed: seed, window: time.Duration(seconds * float64(time.Second)), setups: setupReps, buildDir: scratch}
	ctx, err := json.Marshal(newContext(seed, seconds, scratch))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "context %s\n", ctx)

	todo := workloads
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		todo = []workload{w}
	}
	switch {
	case probes:
		ps, err := runProbes(time.Second, scratch)
		if err != nil {
			return err
		}
		printLayers(out, ps)
		return nil
	case agree:
		return runAgree(out, todo, o)
	case trace == 1:
		// One round of probes serves every workload of a traced suite.
		ps, err := runProbes(o.window/50, scratch)
		if err != nil {
			return fmt.Errorf("probes: %w", err)
		}
		return each(out, todo, func(w workload) (*result, error) {
			res, err := runTraced(w, o)
			if err == nil {
				res.PerLayer = append(res.PerLayer, ps...)
			}
			return res, err
		})
	default:
		return each(out, todo, func(w workload) (*result, error) { return runMeasured(w, o) })
	}
}

// each runs fn per workload, prints every result, and fails after the
// last one if any was incorrect.
func each(out io.Writer, todo []workload, fn func(workload) (*result, error)) error {
	var bad error
	for _, w := range todo {
		fmt.Fprintf(out, "\n== %s: %s\n", w.Name, w.Why)
		res, err := fn(w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if err := res.print(out); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if res.Failed > 0 {
			bad = errIncorrect
		}
	}
	return bad
}

func printMetric(out io.Writer, m metric, note string) {
	fmt.Fprintf(out, "  %-22s %14.4f %-6s %s\n", m.Name, m.Value, m.Unit, note)
}

// printLayers prints per-layer metrics under their module's name, in
// spec order.
func printLayers(out io.Writer, ms []metric) {
	layer := ""
	for _, spec := range perLayer {
		for _, m := range ms {
			if m.Name != spec.Name {
				continue
			}
			if spec.Layer != layer {
				layer = spec.Layer
				fmt.Fprintf(out, " [%s]\n", layer)
			}
			printMetric(out, m, "")
		}
	}
}

// print writes the human-readable report and, last, the result line.
func (r *result) print(out io.Writer) error {
	if len(r.Gated) > 0 {
		fmt.Fprintln(out, " end to end (gated):")
		for i, m := range r.Gated {
			s := endToEnd[i]
			printMetric(out, m, fmt.Sprintf("%s is better, bound %.0f%%", s.Better, s.Bound*100))
		}
	}
	if len(r.PerLayer) > 0 {
		fmt.Fprintln(out, " per layer (ungated):")
		printLayers(out, r.PerLayer)
	}
	if r.Spans != nil {
		r.Spans.write(out)
	}
	if len(r.Info) > 0 {
		fmt.Fprintln(out, " also (ungated):")
		for _, m := range r.Info {
			printMetric(out, m, "")
		}
	}
	if r.Failed > 0 {
		fmt.Fprintf(out, " FAILED %d of %d ops, first: %s\n", r.Failed, r.Attempted, r.FirstFail)
	}
	line, err := r.resultLine()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// resultLine is the machine-readable last line: the gated metrics of a
// measured run, the per-layer metrics of a traced one.
func (r *result) resultLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := r.Gated
	if len(r.PerLayer) > 0 {
		ms = r.PerLayer
	}
	vals := make(map[string]value, len(ms))
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", m.Name)
		}
		vals[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, vals})
}

// runAgree runs the measured suite twice back to back and compares
// every gated metric of every workload against its own bound: the
// bounds in BENCHMARK.json are only evidence if the same code agrees
// with itself inside them.
func runAgree(out io.Writer, todo []workload, o runOpts) error {
	var rounds [2][]*result
	for i := range rounds {
		fmt.Fprintf(out, "\n#### agree: suite run %d of 2\n", i+1)
		err := each(out, todo, func(w workload) (*result, error) {
			res, err := runMeasured(w, o)
			if err == nil {
				rounds[i] = append(rounds[i], res)
			}
			return res, err
		})
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "\n#### agree: run 2 against run 1\n")
	disagree := 0
	for wi, w := range todo {
		for mi, spec := range endToEnd {
			a, b := rounds[0][wi].Gated[mi].Value, rounds[1][wi].Gated[mi].Value
			spread := math.Abs(b-a) / a
			verdict := "ok"
			if spread > spec.Bound {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Fprintf(out, "  %-13s %-14s %12.4f %12.4f %-5s spread %6.2f%%  bound %4.0f%%  %s\n",
				w.Name, spec.Name, a, b, spec.Unit, spread*100, spec.Bound*100, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d gated metrics differ by more than their bound between two runs of the same code", disagree)
	}
	return nil
}
