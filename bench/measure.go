package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/metrics"
)

// runOpts are the per-run inputs. The seed only feeds the actors' key
// choice; nothing of it reaches the program under test.
type runOpts struct {
	seed     int64
	window   time.Duration // measured window of a -trace 0 run, total budget of a -trace 1 run
	setups   int           // set-ups per measured run; setup_s is their median
	buildDir string        // scratch directory for WAL dirs
}

// result is what one run of one workload reports.
type result struct {
	Workload  string
	Gated     []metric // the end-to-end metrics of BENCHMARK.json
	Info      []metric // ungated companions: tails, sample counts, rounds
	PerLayer  []metric // traced run only
	Spans     *spanTotals
	Attempted int64
	Failed    int64
	FirstFail string
}

// fail counts n failures found outside the actors' loops.
func (r *result) fail(n int, format string, args ...any) {
	r.Failed += int64(n)
	if r.FirstFail == "" {
		r.FirstFail = fmt.Sprintf(format, args...)
	}
}

func (r *result) tally(sts ...*actorStats) {
	for _, st := range sts {
		r.Attempted += st.attempted
		r.Failed += st.failed
		if r.FirstFail == "" {
			r.FirstFail = st.firstFail
		}
	}
}

// window is one timed stretch of both actors with the process-wide
// costs around it.
type window struct {
	w, r       actorStats
	cpu        time.Duration // user+sys of the whole process: fleet and clients
	mallocs    uint64
	allocBytes uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func runWindow(a *actors, d time.Duration) window {
	var m0, m1 runtime.MemStats
	latCap := int(d.Seconds()*60000) + 1024
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	var win window
	win.w, win.r = a.run(d, latCap)
	win.cpu = cpuTime() - c0
	runtime.ReadMemStats(&m1)
	win.mallocs = m1.Mallocs - m0.Mallocs
	win.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return win
}

func (win *window) completed() int { return len(win.w.lat) + len(win.r.lat) }

// opsPerSec sums each actor's own rate, so an actor that finished its
// last (long) operation later than the other does not dilute it.
func (win *window) opsPerSec() float64 {
	rate := 0.0
	for _, st := range []*actorStats{&win.w, &win.r} {
		if st.elapsed > 0 {
			rate += float64(len(st.lat)) / st.elapsed.Seconds()
		}
	}
	return rate
}

func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

// p50us sorts the latency samples and returns the two medians in µs.
func (win *window) p50us() (put, get float64) {
	slices.Sort(win.w.lat)
	slices.Sort(win.r.lat)
	return float64(percentile(win.w.lat, 50)) / 1e3, float64(percentile(win.r.lat, 50)) / 1e3
}

// endToEnd computes the gated metrics, in BENCHMARK.json's order.
func (win *window) endToEnd(setupS float64) []metric {
	put, get := win.p50us()
	n := win.completed()
	return []metric{
		{"put_p50_us", "us", put},
		{"get_p50_us", "us", get},
		{"ops_s", "1/s", win.opsPerSec()},
		{"cpu_us_per_op", "us", perOp(float64(win.cpu)/1e3, n)},
		{"fast_frac", "ratio", perOp(float64(win.w.fast+win.r.fast), n)},
		{"setup_s", "s", setupS},
	}
}

// info computes the ungated companions; the latency slices must be
// sorted (endToEnd does it).
func (win *window) info() []metric {
	ms := []metric{
		{"put_samples", "count", float64(len(win.w.lat))},
		{"get_samples", "count", float64(len(win.r.lat))},
	}
	for _, side := range []struct {
		name string
		lat  []int64
	}{{"put", win.w.lat}, {"get", win.r.lat}} {
		if p, ok := tailPercentile(len(side.lat)); ok {
			ms = append(ms,
				metric{side.name + "_tail_pct", "%", p},
				metric{side.name + "_tail_us", "us", float64(percentile(side.lat, p)) / 1e3},
				metric{side.name + "_tail_beyond", "count", float64(beyond(len(side.lat), p))})
		}
	}
	return append(ms,
		metric{"rounds_per_put", "count", perOp(float64(win.w.rounds), len(win.w.lat))},
		metric{"rounds_per_get", "count", perOp(float64(win.r.rounds), len(win.r.lat))},
		metric{"mallocs_per_op", "count", perOp(float64(win.mallocs), win.completed())},
		metric{"alloc_bytes_per_op", "B", perOp(float64(win.allocBytes), win.completed())},
		metric{"fail_frac", "ratio", perOp(float64(win.w.failed+win.r.failed), int(win.w.attempted+win.r.attempted))},
	)
}

// warmupFor scales the untimed warm-up down for short windows (tests).
func warmupFor(d time.Duration) time.Duration { return min(warmup, d/4) }

// runMeasured is the -trace 0 run: set-up (repeated, for a steady
// setup_s), an untimed warm-up, then the measured window — through the
// public facade only, tracing off.
func runMeasured(w workload, o runOpts) (*result, error) {
	res := &result{Workload: w.Name}
	var (
		f      *fleet
		g      *gate
		setups []float64
	)
	for i := 0; i < o.setups; i++ {
		if f != nil {
			f.Close()
		}
		g = newGate(nil)
		var d time.Duration
		var err error
		if f, d, err = setUp(w, o.buildDir, nil, g); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		res.Attempted += 2 * numKeys // the preload, every op of it checked
	}
	defer f.Close()
	a := newActors(g, f.store, w.Batch, o.seed)
	runtime.GC() // start every run from the same heap: the set-ups' garbage is not the window's
	ww, wr := a.run(warmupFor(o.window), 0)
	win := runWindow(a, o.window)
	res.tally(&ww, &wr, &win.w, &win.r)
	res.Gated = win.endToEnd(median(setups))
	res.Info = win.info()
	return res, nil
}

// counters reads the registry's counts the traced run reports, at the
// same boundaries the spans are taken.
type counters struct {
	framesOut, framesIn      int64
	coalRuns, coalMsgs       int64
	walFlushes, walBytes     int64
	serverFrames, serverMsgs int64
}

func readCounters(tr *tracer) counters {
	var c counters
	for _, role := range []string{"writer", "reader"} {
		l := metrics.L("role", role)
		c.framesOut += tr.reg.Counter("lucky_tcp_client_frames_out_total", "", l).Value()
		c.framesIn += tr.reg.Counter("lucky_tcp_client_frames_in_total", "", l).Value()
		c.coalRuns += tr.reg.Counter("lucky_coalescer_runs_total", "", l).Value()
		c.coalMsgs += tr.reg.Counter("lucky_coalescer_msgs_total", "", l).Value()
	}
	c.walFlushes = tr.reg.Histogram("lucky_wal_flush_records", "").Count()
	c.walBytes = tr.reg.Counter("lucky_wal_flush_bytes_total", "").Value()
	c.serverFrames = tr.reg.Counter("lucky_tcp_frames_in_total", "").Value()
	c.serverMsgs = tr.reg.Counter("lucky_tcp_replies_total", "").Value()
	return c
}

// runTraced is the -trace 1 run: a traced window on a fleet rebuilt from
// internal constructors with the decorators of trace.go, then a short
// untraced window on the facade fleet in the same process (the tracing
// overhead and the allocation counts come from it). o.window is the
// budget for both; the caller adds the layer probes.
func runTraced(w workload, o runOpts) (*result, error) {
	res := &result{Workload: w.Name}
	tracedFor, plainFor := o.window/2, o.window/8

	// Traced window.
	tr := newTracer()
	g := newGate(tr)
	f, _, err := setUp(w, o.buildDir, tr, g)
	if err != nil {
		return nil, err
	}
	res.Attempted += 2 * numKeys
	a := newActors(g, f.store, w.Batch, o.seed)
	ww, wr := a.run(warmupFor(tracedFor), 0)
	runtime.GC()
	c0 := readCounters(tr)
	tr.on.Store(true)
	win := runWindow(a, tracedFor)
	tr.on.Store(false)
	c1 := readCounters(tr)
	f.Close() // joins every goroutine that appended spans
	res.tally(&ww, &wr, &win.w, &win.r)
	tput, tget := win.p50us()

	ops := append(win.w.ops, win.r.ops...)
	tot := joinSpans(tr, ops)
	res.Spans = &tot
	var frameBytes int64
	for _, e := range tr.clients {
		frameBytes += e.reqBytes + e.replyBytes
	}

	// The full history — preload, warm-up and window — goes to the
	// checker: the gate's O(1) checks are necessary, this is sufficient.
	if vs := checker.CheckAtomicityPerKey(g.hist); len(vs) > 0 {
		res.fail(len(vs), "atomicity: %s", vs[0])
	}

	// Untraced window, same process, same seed.
	g = newGate(nil)
	f, _, err = setUp(w, o.buildDir, nil, g)
	if err != nil {
		return nil, err
	}
	res.Attempted += 2 * numKeys
	a = newActors(g, f.store, w.Batch, o.seed)
	pw, pr := a.run(warmupFor(plainFor), 0)
	runtime.GC()
	plain := runWindow(a, plainFor)
	f.Close()
	res.tally(&pw, &pr, &plain.w, &plain.r)
	uput, uget := plain.p50us()

	n := win.completed()
	puts := len(win.w.lat)
	overhead := 0.0
	if uput+uget > 0 {
		overhead = (tput + tget - uput - uget) / (uput + uget)
	}
	res.PerLayer = []metric{
		{"frames_per_op", "count", perOp(float64(c1.framesOut-c0.framesOut+c1.framesIn-c0.framesIn), n)},
		{"frame_bytes_per_op", "B", perOp(float64(frameBytes), n)},
		{"coalescer_width", "count", perOp(float64(c1.coalMsgs-c0.coalMsgs), int(c1.coalRuns-c0.coalRuns))},
		{"rounds_per_put", "count", perOp(float64(win.w.rounds), puts)},
		{"rounds_per_get", "count", perOp(float64(win.r.rounds), len(win.r.lat))},
		{"timer_wait_ms", "ms", tot.perOpUS(tot.timerWait) / 1e3},
		{"wal_commits_per_put", "count", perOp(float64(c1.walFlushes-c0.walFlushes), puts)},
		{"wal_bytes_per_put", "B", perOp(float64(c1.walBytes-c0.walBytes), puts)},
		{"mallocs_per_op", "count", perOp(float64(plain.mallocs), plain.completed())},
		{"alloc_bytes_per_op", "B", perOp(float64(plain.allocBytes), plain.completed())},
		{"span_send_us", "us", tot.perOpUS(tot.send)},
		{"span_step_us", "us", tot.perOpUS(tot.step - tot.walAppend - tot.walCommit)},
		{"span_wal_us", "us", tot.perOpUS(tot.walAppend + tot.walCommit)},
		{"span_net_queue_us", "us", tot.perOpUS(tot.netQueue)},
		{"span_joined_frac", "ratio", frac(tot.joined, tot.ops)},
		{"span_negative_frac", "ratio", frac(tot.negative, tot.joined)},
		{"trace_overhead_frac", "ratio", overhead},
	}
	res.Info = []metric{
		{"traced_put_p50_us", "us", tput}, {"untraced_put_p50_us", "us", uput},
		{"traced_get_p50_us", "us", tget}, {"untraced_get_p50_us", "us", uget},
		{"traced_ops", "count", float64(n)}, {"untraced_ops", "count", float64(plain.completed())},
		{"server_frames_in", "count", float64(c1.serverFrames - c0.serverFrames)},
		{"server_replies", "count", float64(c1.serverMsgs - c0.serverMsgs)},
	}
	// The trace must explain what it claims to: every completed op has a
	// span tree, and a remainder below zero (mis-joined spans) is rare.
	if bad := tot.ops - tot.joined; bad > 0 {
		res.fail(bad, "trace: %d of %d ops have no joined span tree", bad, tot.ops)
	}
	if frac(tot.negative, tot.joined) > 0.01 {
		res.fail(tot.negative, "trace: %d of %d span trees have a negative remainder", tot.negative, tot.joined)
	}
	return res, nil
}
