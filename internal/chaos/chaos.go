// Package chaos is the scripted fault-schedule engine: it composes
// network faults (partitions, link flaps, probabilistic drop/duplicate,
// delay-spike jitter), process faults (crash, crash-restart, Byzantine
// automaton swaps) and contention phases into seeded, reproducible
// schedules, drives them against a running deployment while
// internal/workload generates traffic, and verifies the recorded
// history with internal/checker — per key, against the deployment's
// consistency contract. Every deployment's servers are a core.Servers
// fleet, on simnet or on loopback TCP, so a crash, a restart or a swap
// means the same thing on each.
//
// Determinism contract: a scenario's schedule is a pure function of
// (seed, deployment shape, duration) — same seed, same deployment kind
// and duration ⇒ byte-identical event list, including which events the
// budget guard skips. Message-level timing is of course still up to
// the scheduler; what replays exactly is the adversary, which is what
// `luckychaos -seed` needs to reproduce a failure.
//
// Budget guard: the model tolerates t faulty servers of which at most
// b Byzantine. The engine tracks which servers are down and which are
// "suspect" (Byzantine-swapped, or restarted without state — an
// amnesiac answers correctly from initial state, which the model can
// only classify as Byzantine) and deterministically skips any event
// that would exceed |down ∪ suspect| ≤ t or |suspect| ≤ b. A schedule
// therefore cannot push a deployment outside the model by accident —
// if the checker flags such a run, that is a bug, not a misuse.
package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/simnet"
	"luckystore/internal/types"
	"luckystore/internal/workload"
)

// ActionKind enumerates the fault actions a schedule can contain.
type ActionKind string

// The action vocabulary.
const (
	ActPartition   ActionKind = "partition"    // install Groups as the current partition
	ActHeal        ActionKind = "heal"         // release the partition
	ActHoldLink    ActionKind = "hold-link"    // suspend one directed link
	ActReleaseLink ActionKind = "release-link" // resume one directed link
	ActProcFaults  ActionKind = "proc-faults"  // drop/duplicate/jitter on all of Proc's links
	ActClearFaults ActionKind = "clear-faults" // remove every probabilistic fault
	ActCrash       ActionKind = "crash"        // crash-stop Server
	ActRestart     ActionKind = "restart"      // restart Server (Fresh: lose state)
	ActSwap        ActionKind = "swap"         // replace Server with Behavior
	// ActDiskFault arms a storage fault (Disk: torn-write, fsync-error)
	// on Server's backend: the next mutating operation kills the disk
	// and the server goes mute — a crash fault in the model's terms, so
	// it is budgeted against t exactly like ActCrash. A later
	// ActRestart heals the disk and recovers from it. Every deployment
	// honors it; on a fleet it hits server i of every cluster.
	ActDiskFault ActionKind = "disk-fault"
	// Fleet actions, honored by deployments with a router in front;
	// others skip them benignly.
	ActJoinCluster   ActionKind = "join-cluster"   // add one cluster to the fleet
	ActRemoveCluster ActionKind = "remove-cluster" // retire active cluster ordinal Server
)

// Action is one scripted fault, a plain value so schedules serialize
// and compare.
type Action struct {
	Kind     ActionKind        `json:"kind"`
	Server   int               `json:"server,omitempty"`
	Fresh    bool              `json:"fresh,omitempty"`
	Groups   [][]types.ProcID  `json:"groups,omitempty"`
	From     types.ProcID      `json:"from,omitempty"`
	To       types.ProcID      `json:"to,omitempty"`
	Proc     types.ProcID      `json:"proc,omitempty"`
	Faults   simnet.LinkFaults `json:"faults,omitempty"`
	Behavior string            `json:"behavior,omitempty"`
	Disk     string            `json:"disk,omitempty"` // storage fault kind for ActDiskFault
}

func (a Action) String() string {
	switch a.Kind {
	case ActPartition:
		return fmt.Sprintf("partition %v", a.Groups)
	case ActHoldLink, ActReleaseLink:
		return fmt.Sprintf("%s %s→%s", a.Kind, a.From, a.To)
	case ActProcFaults:
		return fmt.Sprintf("proc-faults %s drop=%.2f dup=%.2f jitter=%s", a.Proc, a.Faults.Drop, a.Faults.Duplicate, a.Faults.JitterMax)
	case ActCrash:
		return fmt.Sprintf("crash s%d", a.Server)
	case ActRestart:
		mode := "warm"
		if a.Fresh {
			mode = "fresh"
		}
		return fmt.Sprintf("restart s%d (%s)", a.Server, mode)
	case ActSwap:
		return fmt.Sprintf("swap s%d → %s", a.Server, a.Behavior)
	case ActDiskFault:
		return fmt.Sprintf("disk-fault s%d (%s)", a.Server, a.Disk)
	case ActJoinCluster:
		return "join-cluster"
	case ActRemoveCluster:
		return fmt.Sprintf("remove-cluster #%d", a.Server)
	default:
		return string(a.Kind)
	}
}

// Event is one action at an offset from run start.
type Event struct {
	At     time.Duration `json:"at"`
	Action Action        `json:"action"`
}

// AppliedEvent is an Event plus what the engine did with it.
type AppliedEvent struct {
	Event
	Applied bool   `json:"applied"`
	Skipped string `json:"skipped,omitempty"` // reason, when not applied
	Err     string `json:"err,omitempty"`
}

// Options tunes a run beyond the scenario's own workload shape.
type Options struct {
	// Log receives one line per applied event; nil discards.
	Log io.Writer
}

// Report is the outcome of one chaos run.
type Report struct {
	Scenario   string         `json:"scenario"`
	Deployment string         `json:"deployment"`
	Seed       int64          `json:"seed"`
	Duration   time.Duration  `json:"duration"`
	Events     []AppliedEvent `json:"events"`
	Ops        int            `json:"ops"`
	Writes     int            `json:"writes"`
	Reads      int            `json:"reads"`
	FastFrac   float64        `json:"fast_frac"`
	// Traffic is the full shared-path summary (workload.Summarize) the
	// headline counters above are drawn from; it adds latency
	// percentiles, rounds/op, and ghost-stamp retries, in the same
	// shape luckyload's SLO artifact uses.
	Traffic    workload.Result `json:"traffic"`
	OpError    string          `json:"op_error,omitempty"`
	Violations []string        `json:"violations,omitempty"`
	Clean      bool            `json:"clean"`
	// Writers is the contending writer-identity count the traffic ran
	// with; MWClamped marks that the scenario asked for more than the
	// deployment exposes and the run was clamped to single-writer (the
	// matrix runs every scenario over every deployment kind, so the
	// degradation is deliberate here — and explicit, unlike the silent
	// fallback workload.Continuous used to apply).
	Writers   int        `json:"writers,omitempty"`
	MWClamped bool       `json:"mw_clamped,omitempty"`
	History   []OpRecord `json:"history,omitempty"`

	ops []checker.Op
}

// OpRecord is the JSON-serializable form of one recorded operation,
// written into failure artifacts so a run replays from its history.
type OpRecord struct {
	ID     int       `json:"id"`
	Client string    `json:"client"`
	Kind   string    `json:"kind"`
	Key    string    `json:"key,omitempty"`
	TS     int64     `json:"ts"`
	W      int32     `json:"w,omitempty"`
	Val    string    `json:"val"`
	Invoke time.Time `json:"invoke"`
	Return time.Time `json:"return"`
	Rounds int       `json:"rounds"`
	Fast   bool      `json:"fast"`
	Err    string    `json:"err,omitempty"`
}

// RecordedOps returns the raw recorded history.
func (r *Report) RecordedOps() []checker.Op { return r.ops }

// AttachHistory fills Report.History from the recorded ops so WriteJSON
// emits the full replayable history (failure artifacts want it; smoke
// summaries usually do not).
func (r *Report) AttachHistory() {
	r.History = make([]OpRecord, 0, len(r.ops))
	for _, op := range r.ops {
		rec := OpRecord{
			ID: op.ID, Client: string(op.Client), Kind: op.Kind.String(), Key: op.Key,
			TS: int64(op.Value.TS), W: int32(op.Value.W), Val: string(op.Value.Val),
			Invoke: op.Invoke, Return: op.Return, Rounds: op.Rounds, Fast: op.Fast,
		}
		if op.Err != nil {
			rec.Err = op.Err.Error()
		}
		r.History = append(r.History, rec)
	}
}

// WriteJSON serializes the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// settleTime is how long the engine lets traffic run after the last
// fault is lifted, so in-flight slow paths complete and the tail of the
// history exercises the healed system.
const settleTime = 250 * time.Millisecond

// minDuration keeps degenerate -duration values from producing empty
// schedules.
const minDuration = 200 * time.Millisecond

// Run executes scenario sc against deployment d for roughly duration
// (plus settle time), generating traffic throughout, and returns the
// checked report. The returned error covers engine-level failures
// (unknown behavior, deployment teardown); consistency violations and
// operation errors are reported in the Report, with Clean == false.
func Run(d Deployment, sc Scenario, seed int64, duration time.Duration, opts Options) (*Report, error) {
	if duration < minDuration {
		duration = minDuration
	}
	t, b := d.Budget()
	writers := d.NumWriters()
	p := SchedParams{
		Servers: d.Servers(), T: t, B: b,
		Readers: d.NumReaders(), Writers: writers, Seed: seed, Duration: duration,
	}
	events := sc.Schedule(p)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })

	// The matrix runs every scenario over every deployment kind, so a
	// multi-writer scenario on a single-writer deployment clamps to one
	// identity here — explicitly, recorded in the report — instead of
	// tripping workload.ErrMWUnsupported.
	genWriters := sc.Writers
	clamped := false
	if genWriters > 1 && writers <= 1 {
		genWriters, clamped = 1, true
	}

	rep := &Report{
		Scenario: sc.Name, Deployment: d.Kind(), Seed: seed, Duration: duration,
		Writers: max(genWriters, 1), MWClamped: clamped,
	}

	// Traffic.
	keys := sc.keys()
	ctx, cancel := context.WithCancel(context.Background())
	gen := workload.Continuous{
		Keys: keys, Seed: seed,
		HotFrac:   sc.HotFrac,
		Writers:   genWriters,
		WritePace: sc.WritePace, ReadPace: sc.ReadPace,
	}
	type wlResult struct {
		rec *checker.Recorder
		err error
	}
	wlDone := make(chan wlResult, 1)
	go func() {
		rec, err := gen.Run(ctx, d)
		wlDone <- wlResult{rec, err}
	}()

	// Timeline: apply each event at its offset, under the budget guard.
	guard := newGuard(t, b)
	start := time.Now()
	for _, ev := range events {
		if wait := time.Until(start.Add(ev.At)); wait > 0 {
			time.Sleep(wait)
		}
		applied := apply(d, ev, guard)
		rep.Events = append(rep.Events, applied)
		if opts.Log != nil {
			status := "applied"
			if !applied.Applied {
				status = "skipped: " + applied.Skipped
			}
			fmt.Fprintf(opts.Log, "%8s %-40s %s\n", ev.At.Round(time.Millisecond), ev.Action, status)
		}
	}
	if wait := time.Until(start.Add(duration)); wait > 0 {
		time.Sleep(wait)
	}

	// Settle: lift every network fault so held messages deliver and
	// in-flight operations complete, then let traffic breathe.
	if n := d.Net(); n != nil {
		n.Heal()
		n.ReleaseAll()
		n.ClearAllFaults()
	}
	time.Sleep(settleTime)
	cancel()
	wl := <-wlDone

	// Check.
	rep.ops = wl.rec.Ops()
	if wl.err != nil {
		rep.OpError = wl.err.Error()
	}
	rep.Traffic = workload.Summarize(rep.ops, duration+settleTime)
	rep.Ops, rep.Writes, rep.Reads = rep.Traffic.Ops, rep.Traffic.Writes, rep.Traffic.Reads
	rep.FastFrac = rep.Traffic.FastFrac
	for _, v := range d.Check(rep.ops) {
		rep.Violations = append(rep.Violations, v.String())
	}
	// An event that errored means the executed fault sequence diverged
	// from the script — the run did not test what the seed says it
	// tested, so it must not report clean.
	eventErrs := false
	for _, ev := range rep.Events {
		if ev.Err != "" {
			eventErrs = true
		}
	}
	rep.Clean = wl.err == nil && len(rep.Violations) == 0 && !eventErrs
	return rep, nil
}

// guard tracks the failure budget.
type guard struct {
	t, b    int
	down    map[int]bool
	suspect map[int]bool // Byzantine-swapped or amnesiac-restarted
}

func newGuard(t, b int) *guard {
	return &guard{t: t, b: b, down: map[int]bool{}, suspect: map[int]bool{}}
}

// faulty counts |down ∪ suspect| with optional additions.
func (g *guard) faulty(addDown, addSuspect int) int {
	n := 0
	for i := range g.down {
		if !g.suspect[i] {
			n++
		}
	}
	n += len(g.suspect)
	if addDown >= 0 && !g.down[addDown] && !g.suspect[addDown] {
		n++
	}
	if addSuspect >= 0 && !g.suspect[addSuspect] && !g.down[addSuspect] {
		n++
	}
	return n
}

// skip reports why a would push the deployment outside the failure
// model, "" when it stays inside. Network and fleet actions consume no
// budget: clusters are independent quorum groups, and the rebalance
// handoff is a client-side protocol, not a server fault.
func (g *guard) skip(a Action) string {
	overT := fmt.Sprintf("budget: would exceed t=%d faulty", g.t)
	switch a.Kind {
	// A disk fault mutes the server on its next mutating step:
	// conservatively a crash fault from arming on, until a restart
	// heals it.
	case ActCrash, ActDiskFault:
		if g.down[a.Server] {
			return "already down"
		}
		if g.faulty(a.Server, -1) > g.t {
			return overT
		}
	case ActRestart:
		if a.Fresh && !g.suspect[a.Server] {
			if len(g.suspect)+1 > g.b {
				return fmt.Sprintf("budget: amnesiac restart would exceed b=%d", g.b)
			}
			// A fresh restart of a *running* server mints a new suspect
			// without freeing a down slot: check t too.
			if !g.down[a.Server] && g.faulty(-1, a.Server) > g.t {
				return overT
			}
		}
	case ActSwap:
		if !g.suspect[a.Server] && len(g.suspect)+1 > g.b {
			return fmt.Sprintf("budget: swap would exceed b=%d Byzantine", g.b)
		}
		if g.faulty(-1, a.Server) > g.t {
			return overT
		}
	}
	return ""
}

// record books an applied action.
func (g *guard) record(a Action) {
	switch a.Kind {
	case ActCrash, ActDiskFault:
		g.down[a.Server] = true
	case ActRestart:
		delete(g.down, a.Server)
		if a.Fresh {
			g.suspect[a.Server] = true
		}
	case ActSwap:
		delete(g.down, a.Server) // the swapped automaton is running
		g.suspect[a.Server] = true
	}
}

// apply executes one event against the deployment, enforcing the
// failure budget. The decision depends only on the event sequence, so
// a replayed schedule skips exactly the same events.
func apply(d Deployment, ev Event, g *guard) AppliedEvent {
	out := AppliedEvent{Event: ev}
	a := ev.Action
	if out.Skipped = d.skip(a); out.Skipped == "" {
		out.Skipped = g.skip(a)
	}
	if out.Skipped != "" {
		return out
	}
	if err := d.do(a, ev.At.Nanoseconds()+int64(a.Server)); err != nil {
		out.Err = err.Error()
		return out
	}
	g.record(a)
	out.Applied = true
	return out
}
