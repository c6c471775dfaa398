package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"luckystore"
	"luckystore/internal/node"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {51, 60}, {90, 90}, {91, 100}, {100, 100}, {10, 10}, {0.1, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 99.9); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false},      // P90 of 99 leaves 9 beyond
		{100, 90, true},     // exactly 10 beyond P90
		{999, 90, true},     // P99 would leave 9
		{1000, 99, true},    // exactly 10 beyond P99
		{9999, 99, true},    // P99.9 would leave 9
		{10000, 99.9, true}, // exactly 10 beyond P99.9
		{500000, 99.99, true},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, p) < 10 {
			t.Errorf("tailPercentile(%d) = %v leaves only %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
}

// benchmarkJSON is BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json and the tables the
// program prints from in step.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %q / %q", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in spec.go", len(b.EndToEnd), len(endToEnd))
	}
	for i, s := range endToEnd {
		m := b.EndToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, spec.go %+v", i, m, s)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in spec.go", len(b.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		m := b.PerLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, spec.go %+v", i, m, s)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
}

// checkMetrics asserts got carries exactly the metrics of want, once
// each, with their units and finite values.
func checkMetrics(t *testing.T, what string, got []metric, want []metricSpec) {
	t.Helper()
	seen := map[string]int{}
	for _, m := range got {
		seen[m.Name]++
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s is not finite: %v", what, m.Name, m.Value)
		}
	}
	for _, s := range want {
		if seen[s.Name] != 1 {
			t.Errorf("%s: %s emitted %d times, want once", what, s.Name, seen[s.Name])
		}
		for _, m := range got {
			if m.Name == s.Name && m.Unit != s.Unit {
				t.Errorf("%s: %s has unit %q, want %q", what, s.Name, m.Unit, s.Unit)
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", what, len(got), len(want))
	}
}

func valueOf(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// TestWorkloadsEmitEveryMetric runs every workload briefly, measured and
// traced, and checks the result against the metric tables and the
// regime each workload is there to show.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	window := 300 * time.Millisecond
	if !testing.Short() {
		window = time.Second
	}
	dir := t.TempDir()
	probes, err := runProbes(20*time.Millisecond, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := runOpts{seed: 42, window: window, setups: 1, buildDir: dir}
			res, err := runMeasured(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted < 2*numKeys {
				t.Fatalf("measured: %d of %d ops failed: %s", res.Failed, res.Attempted, res.FirstFail)
			}
			checkMetrics(t, "measured", res.Gated, endToEnd)
			for _, m := range res.Gated {
				if m.Value <= 0 {
					t.Errorf("measured: %s = %v, want > 0", m.Name, m.Value)
				}
			}

			// The traced window is half the budget.
			o.window = 2 * window
			tres, err := runTraced(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if tres.Failed != 0 {
				t.Fatalf("traced: %d of %d ops failed: %s", tres.Failed, tres.Attempted, tres.FirstFail)
			}
			tres.PerLayer = append(tres.PerLayer, probes...)
			checkMetrics(t, "traced", tres.PerLayer, perLayer)
			if j := valueOf(tres.PerLayer, "span_joined_frac"); j != 1 {
				t.Errorf("span_joined_frac = %v, want every op joined", j)
			}
			if n := valueOf(tres.PerLayer, "span_negative_frac"); n > 0.01 {
				t.Errorf("span_negative_frac = %v, want ≤ 0.01", n)
			}
			if wal := valueOf(tres.PerLayer, "span_wal_us"); (wal > 0) != w.Durable {
				t.Errorf("span_wal_us = %v on a workload with Durable = %v", wal, w.Durable)
			}
			if _, err := tres.resultLine(); err != nil {
				t.Error(err)
			}

			fast := valueOf(res.Gated, "fast_frac")
			rp, rg := valueOf(tres.PerLayer, "rounds_per_put"), valueOf(tres.PerLayer, "rounds_per_get")
			wait := valueOf(tres.PerLayer, "timer_wait_ms")
			if w.OneDown {
				// fw = 0, fr = 1: one crash makes writes slow, reads stay fast.
				if math.Abs(fast-0.5) > 0.05 || rp != 3 || rg != 1 || wait < 20 {
					t.Errorf("one server down: fast_frac %v, rounds %v/%v, timer_wait %v ms; want 0.5, 3/1, ≈25", fast, rp, rg, wait)
				}
			} else if fast < 0.8 || rp > 1.5 || rg > 1.5 || wait > 10 {
				// Loose on purpose: under -race a stalled server lets the odd
				// round timer fire. A real run reads ≥0.99, 1.00/1.00, ≈0.
				t.Errorf("calm fleet: fast_frac %v, rounds %v/%v, timer_wait %v ms; want ≈1, 1/1, ≈0", fast, rp, rg, wait)
			}
		})
	}
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	r := &result{Attempted: 10, Gated: []metric{{"put_p50_us", "us", 1.5}}}
	line, err := r.resultLine()
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(got), line)
	}
	r.Gated[0].Value = math.NaN()
	if _, err := r.resultLine(); err == nil {
		t.Error("a NaN metric must not reach the result line")
	}
}

// TestGateCatchesBadReads feeds the gate the misbehaviours it exists to
// catch.
func TestGateCatchesBadReads(t *testing.T) {
	store, err := luckystore.OpenKV(fleetConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	g := newGate(nil)
	now := time.Now()
	good := luckystore.Tagged{TS: 3, Val: makeValue(5, 3)}
	for _, c := range []struct {
		name  string
		got   luckystore.Tagged
		floor int64
		seen  int64
		fails bool
	}{
		{"own value at its stamp", good, 3, 3, false},
		{"another key's value", luckystore.Tagged{TS: 3, Val: makeValue(6, 3)}, 0, 0, true},
		{"value under the wrong stamp", luckystore.Tagged{TS: 4, Val: makeValue(5, 3)}, 0, 0, true},
		{"older than a put that returned", good, 4, 0, true},
		{"stamp going backwards", good, 0, 4, true},
		{"not a generated value", luckystore.Tagged{TS: 3, Val: "junk"}, 0, 0, true},
	} {
		var st actorStats
		g.seen[5] = c.seen
		g.afterGet(store, 5, c.floor, c.got, now, now, nil, &st)
		if (st.failed == 1) != c.fails || st.attempted != 1 {
			t.Errorf("%s: failed = %d of %d, want failure = %v (%s)", c.name, st.failed, st.attempted, c.fails, st.firstFail)
		}
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, c := range []struct {
		k   int
		seq int64
	}{{0, 1}, {4095, 1}, {17, 1234567890123}} {
		v := makeValue(c.k, c.seq)
		k, seq, ok := parseValue(v)
		if !ok || k != c.k || seq != c.seq || len(v) != valueSize {
			t.Errorf("parseValue(makeValue(%d, %d)) = %d, %d, %v (len %d)", c.k, c.seq, k, seq, ok, len(v))
		}
		if i, ok := keyIndex(keyName(c.k)); !ok || i != c.k {
			t.Errorf("keyIndex(keyName(%d)) = %d, %v", c.k, i, ok)
		}
	}
}

// batchEndpoint records which send path was taken.
type batchEndpoint struct {
	sinkEndpoint
	batched, flushed int
}

func (b *batchEndpoint) SendBatched(types.ProcID, []wire.Message) error {
	b.batched++
	b.got <- time.Now()
	return nil
}

func (b *batchEndpoint) Flush() error { b.flushed++; return nil }

// TestDecoratorsKeepTheFastPaths: a decorator that hid BatchSender,
// Flusher or AppendStepper would make the traced run measure a slower
// program than the measured run.
func TestDecoratorsKeepTheFastPaths(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	msg := wire.Keyed{Key: keyName(1), Inner: wire.Read{TSR: 1, Round: 1}}

	inner := &batchEndpoint{sinkEndpoint: sinkEndpoint{got: make(chan time.Time, 4), recv: make(chan wire.Envelope)}}
	var ep transport.Endpoint = tr.endpoint(inner)
	if _, ok := ep.(transport.BatchSender); !ok {
		t.Fatal("traced endpoint hides BatchSender")
	}
	c := transport.NewCoalescer(ep)
	if err := c.Send(types.ServerID(0), msg); err != nil {
		t.Fatal(err)
	}
	<-inner.got
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ep.(transport.Flusher).Flush(); err != nil || inner.flushed != 1 {
		t.Errorf("Flush not forwarded: err %v, inner flushed %d times", err, inner.flushed)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if inner.batched != 1 {
		t.Errorf("coalescer over the traced endpoint took SendBatched %d times, want 1", inner.batched)
	}
	if e := tr.clients[0]; len(e.sends) != 1 || e.reqBytes == 0 {
		t.Errorf("traced endpoint recorded %d sends, %d request bytes", len(e.sends), e.reqBytes)
	}

	// An inner endpoint without the fast path is served by plain Sends.
	plain := &sinkEndpoint{got: make(chan time.Time, 4), recv: make(chan wire.Envelope)}
	pe := tr.endpoint(plain)
	if err := pe.SendBatched(types.ServerID(0), []wire.Message{msg, msg}); err != nil {
		t.Fatal(err)
	}
	<-plain.got // the two keyed messages travel as one Batch frame
	if err := pe.Flush(); err != nil {
		t.Errorf("Flush over an unbuffered endpoint: %v", err)
	}
	if err := pe.Close(); err != nil {
		t.Fatal(err)
	}

	var a node.Automaton = &tracedAutomaton{inner: echo{}, st: tr.shard(0)}
	as, ok := a.(node.AppendStepper)
	if !ok {
		t.Fatal("traced automaton hides AppendStepper")
	}
	buf := make([]transport.Outgoing, 0, 4)
	out := as.StepAppend(types.WriterID(), msg, buf)
	if len(out) != 1 || &out[0] != &buf[:1][0] {
		t.Error("traced automaton did not append into the caller's buffer")
	}
	if steps := tr.shards[0].steps; len(steps) != 1 || steps[0].key != 1 || steps[0].phase != phRead0+1 {
		t.Errorf("traced automaton recorded %+v", steps)
	}
}

// TestJoinSpansAccountsEveryNanosecond joins one hand-made slow Put —
// a PW round that waits out the timer, then W rounds 2 and 3 — and
// checks each span lands where the tree says.
func TestJoinSpansAccountsEveryNanosecond(t *testing.T) {
	tr := newTracer()
	e := &tracedEndpoint{client: clientWriter}
	tr.clients = append(tr.clients, e)
	sh := []*shardTrace{{server: 0}, {server: 1}}
	tr.shards = sh
	const key, stamp = 9, 4
	at := int64(1000) // the op starts here
	type round struct {
		phase uint8
		wait  int64 // after the quorum-th reply, until the next round starts
	}
	for _, r := range []round{{phPW, 25000}, {phW0 + 2, 5}, {phW0 + 3, 7}} {
		for s := uint8(0); s < 2; s++ {
			// Sends take 10, server s steps 100·(s+1) later for 20, the
			// reply arrives 50 after the step: server 1 is the quorum-th.
			send := at + int64(s)*10
			step := send + 10 + 100*int64(s+1)
			e.sends = append(e.sends, msgSpan{t0: send, t1: send + 10, stamp: stamp, key: key, phase: r.phase, server: s})
			sh[s].steps = append(sh[s].steps, stepSpan{t0: step, t1: step + 20, stamp: stamp, key: key, phase: r.phase, client: clientWriter, walAppend: 3, walCommit: 4})
			e.recvs = append(e.recvs, msgSpan{t0: step + 70, t1: step + 70, stamp: stamp, key: key, phase: r.phase, server: s})
		}
		at = at + 10 + 10 + 200 + 70 + r.wait // quorum-th arrival on server 1, plus the wait
	}
	op := opRec{t0: 1000, t1: at, stamp: stamp, key: key, client: clientWriter, slow: true}
	tot := joinSpans(tr, []opRec{op})
	if tot.ops != 1 || tot.joined != 1 || tot.negative != 0 || tot.rounds != 3 {
		t.Fatalf("joined %d of %d ops, %d negative, %d rounds", tot.joined, tot.ops, tot.negative, tot.rounds)
	}
	if tot.send != 30 || tot.step != 60 || tot.walAppend != 9 || tot.walCommit != 12 || tot.walSteps != 3 {
		t.Errorf("send %d step %d wal %d+%d in %d steps; want 30, 60, 9+12 in 3", tot.send, tot.step, tot.walAppend, tot.walCommit, tot.walSteps)
	}
	if tot.timerWait != 25000+5+7 {
		t.Errorf("timer_wait = %d, want %d", tot.timerWait, 25000+5+7)
	}
	if sum := tot.send + tot.step + tot.timerWait + tot.netQueue; sum != tot.op || tot.op != at-1000 {
		t.Errorf("spans sum to %d, op is %d (want %d)", sum, tot.op, at-1000)
	}

	// Without the blocking server's step the op has no tree.
	sh[1].steps = nil
	if tot := joinSpans(tr, []opRec{op}); tot.joined != 0 {
		t.Errorf("op joined without its blocking step")
	}
}
