package chaos

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/core"
	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/types"
	"luckystore/internal/wire"
	"luckystore/internal/workload"
)

func schedParams(seed int64) SchedParams {
	return SchedParams{Servers: 6, T: 2, B: 1, Readers: 3, Seed: seed, Duration: time.Second}
}

// Acceptance: same seed ⇒ same schedule, for every scenario.
func TestSchedulesAreDeterministic(t *testing.T) {
	for _, sc := range Scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			a := sc.Schedule(schedParams(42))
			b := sc.Schedule(schedParams(42))
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("schedule diverged for identical seeds:\n%v\nvs\n%v", a, b)
			}
			if len(a) == 0 {
				t.Fatal("empty schedule")
			}
			c := sc.Schedule(schedParams(43))
			if reflect.DeepEqual(a, c) {
				t.Logf("note: seeds 42 and 43 produced identical schedules (scenario may not randomize)")
			}
		})
	}
}

func TestScheduleOffsetsWithinDuration(t *testing.T) {
	for _, sc := range Scenarios {
		for seed := int64(1); seed <= 5; seed++ {
			p := schedParams(seed)
			for _, ev := range sc.Schedule(p) {
				if ev.At < 0 || ev.At > p.Duration {
					t.Errorf("%s seed %d: event at %v outside [0,%v]: %v", sc.Name, seed, ev.At, p.Duration, ev.Action)
				}
			}
		}
	}
}

func TestLookupAndNames(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("scenario library has %d entries, want ≥ 6", len(names))
	}
	for _, n := range names {
		if _, err := Lookup(n); err != nil {
			t.Errorf("Lookup(%q): %v", n, err)
		}
	}
	if _, err := Lookup("no-such-scenario"); err == nil {
		t.Error("Lookup accepted an unknown name")
	}
}

// Acceptance: two engine runs with the same seed apply/skip the same
// events (the replayable adversary), on a simnet deployment.
func TestRunEventDecisionsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	sc, err := Lookup("crash-restarts")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []AppliedEvent {
		d, err := Open("core", 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		rep, err := Run(d, sc, 7, 400*time.Millisecond, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Events
	}
	a, b := run(), b2(run)
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Action.Kind != b[i].Action.Kind || a[i].Applied != b[i].Applied || a[i].At != b[i].At {
			t.Errorf("event %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func b2(f func() []AppliedEvent) []AppliedEvent { return f() }

// The budget guard never lets a schedule exceed the failure model:
// whatever the seed, applied crashes/swaps stay within t and b.
func TestGuardEnforcesBudget(t *testing.T) {
	g := newGuard(2, 1)
	d := fakeDep(t)
	evAt := func(k ActionKind, srv int) Event {
		return Event{Action: Action{Kind: k, Server: srv, Behavior: "stale"}}
	}
	if out := apply(d, evAt(ActCrash, 0), g); !out.Applied {
		t.Fatalf("first crash skipped: %+v", out)
	}
	if out := apply(d, evAt(ActSwap, 1), g); !out.Applied {
		t.Fatalf("first swap skipped: %+v", out)
	}
	// down={0}, suspect={1}: a second crash would make 3 faulty > t=2.
	if out := apply(d, evAt(ActCrash, 2), g); out.Applied {
		t.Fatalf("crash beyond t applied: %+v", out)
	}
	// A second swap would exceed b=1.
	if out := apply(d, evAt(ActSwap, 3), g); out.Applied {
		t.Fatalf("swap beyond b applied: %+v", out)
	}
	// Restarting the crashed server frees a slot (warm restart).
	if out := apply(d, evAt(ActRestart, 0), g); !out.Applied {
		t.Fatalf("warm restart skipped: %+v", out)
	}
	if out := apply(d, evAt(ActCrash, 2), g); !out.Applied {
		t.Fatalf("crash after restart skipped: %+v", out)
	}
}

// A fresh restart of a *running* server mints a suspect without
// freeing a down slot: it must respect the t budget too.
func TestGuardFreshRestartOfRunningServerRespectsT(t *testing.T) {
	g := newGuard(2, 1)
	d := fakeDep(t)
	apply(d, Event{Action: Action{Kind: ActCrash, Server: 0}}, g)
	apply(d, Event{Action: Action{Kind: ActCrash, Server: 1}}, g)
	// down={0,1} = t: an amnesiac restart of running s2 would make the
	// faulty union 3 > t=2 even though b has room.
	out := apply(d, Event{Action: Action{Kind: ActRestart, Server: 2, Fresh: true}}, g)
	if out.Applied {
		t.Fatalf("fresh restart of running server applied beyond t: %+v", out)
	}
}

// An amnesiac (fresh) restart counts against b, even of a down server.
func TestGuardBudgetsColdRestartsAgainstB(t *testing.T) {
	g := newGuard(2, 1)
	d := fakeDep(t)
	apply(d, Event{Action: Action{Kind: ActCrash, Server: 0}}, g)
	if out := apply(d, Event{Action: Action{Kind: ActRestart, Server: 0, Fresh: true}}, g); !out.Applied {
		t.Fatalf("first cold restart skipped: %+v", out)
	}
	apply(d, Event{Action: Action{Kind: ActCrash, Server: 1}}, g)
	if out := apply(d, Event{Action: Action{Kind: ActRestart, Server: 1, Fresh: true}}, g); out.Applied {
		t.Fatalf("second amnesiac restart applied beyond b=1: %+v", out)
	}
}

// The full acceptance matrix: every named scenario runs checker-clean
// on every deployment flavor.
func TestScenarioMatrixRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix skipped in -short mode")
	}
	for _, kind := range Kinds() {
		for _, sc := range Scenarios {
			kind, sc := kind, sc
			t.Run(fmt.Sprintf("%s/%s", kind, sc.Name), func(t *testing.T) {
				t.Parallel()
				d, err := Open(kind, 3, max(1, sc.Writers))
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				rep, err := Run(d, sc, 1, 600*time.Millisecond, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if rep.OpError != "" {
					t.Errorf("operation error: %s", rep.OpError)
				}
				for _, v := range rep.Violations {
					t.Errorf("violation: %s", v)
				}
				if rep.Ops == 0 {
					t.Error("no operations recorded")
				}
				applied, benignSkips := 0, 0
				for _, ev := range rep.Events {
					if ev.Err != "" {
						t.Errorf("event error: %s: %s", ev.Action, ev.Err)
					}
					if ev.Applied {
						applied++
					}
					// A network-fault scenario degrades to plain traffic
					// on a real-socket deployment, and a fleet scenario
					// degrades the same way on a single-cluster one —
					// neither has anything to script there.
					if ev.Skipped == "no simulated network" || ev.Skipped == "deployment cannot rebalance" {
						benignSkips++
					}
				}
				if applied == 0 && benignSkips != len(rep.Events) {
					t.Error("no fault event applied (schedule did nothing)")
				}
			})
		}
	}
}

// The contending-writers scenario on a multi-writer deployment must
// actually engage both writer identities — a silent fallback to SWMR
// would pass the matrix while testing nothing.
func TestContendingWritersEngagesBothIdentities(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	sc, err := Lookup("contending-writers")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"core", "kv", "tcpkv"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			d, err := Open(kind, 2, sc.Writers)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if d.NumWriters() != sc.Writers {
				t.Fatalf("deployment %s has no %d-writer capability", kind, sc.Writers)
			}
			rep, err := Run(d, sc, 11, 500*time.Millisecond, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.OpError != "" {
				t.Errorf("operation error: %s", rep.OpError)
			}
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
			perWriter := map[types.ProcID]int{}
			for _, op := range rep.RecordedOps() {
				if op.Kind == checker.KindWrite && op.Err == nil {
					perWriter[op.Client]++
					if idx := op.Client.WriterIndex(); op.Value.Stamp().Writer != types.WID(idx) {
						t.Fatalf("op by %s bound writer component %d", op.Client, op.Value.Stamp().Writer)
					}
				}
			}
			for w := 0; w < sc.Writers; w++ {
				if perWriter[types.WriterIDN(w)] == 0 {
					t.Errorf("writer identity %d recorded no completed writes", w)
				}
			}
		})
	}
}

// The fleet variant of the same guarantee: contending-writers-fleet on
// the router deployments must route both writer identities through the
// per-cluster writer-identity maps, across a join and a retirement.
func TestContendingWritersFleetEngagesBothIdentities(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	sc, err := Lookup("contending-writers-fleet")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"router", "tcprouter"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			d, err := Open(kind, 2, sc.Writers)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if d.NumWriters() != sc.Writers {
				t.Fatalf("fleet deployment %s has no %d-writer capability", kind, sc.Writers)
			}
			rep, err := Run(d, sc, 11, 500*time.Millisecond, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.MWClamped {
				t.Fatal("fleet run clamped multi-writer traffic to SWMR")
			}
			if rep.OpError != "" {
				t.Errorf("operation error: %s", rep.OpError)
			}
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
			perWriter := map[types.ProcID]int{}
			for _, op := range rep.RecordedOps() {
				if op.Kind == checker.KindWrite && op.Err == nil {
					perWriter[op.Client]++
					if idx := op.Client.WriterIndex(); op.Value.Stamp().Writer != types.WID(idx) {
						t.Fatalf("op by %s bound writer component %d", op.Client, op.Value.Stamp().Writer)
					}
				}
			}
			for w := 0; w < sc.Writers; w++ {
				if perWriter[types.WriterIDN(w)] == 0 {
					t.Errorf("writer identity %d recorded no completed writes", w)
				}
			}
		})
	}
}

// fakeDep is a deployment of one cluster of S = 6 idle core servers,
// no clients: its fault hooks succeed, for guard unit tests.
func fakeDep(t *testing.T) *deployment {
	sim, err := simnet.New(types.ServerIDs(6))
	if err != nil {
		t.Fatal(err)
	}
	srvs, err := core.NewServers(core.Endpoints(sim), 6, func(int) (node.Automaton, []node.Automaton, func(wire.Message) int) {
		return core.NewServer(), nil, nil
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srvs.Close)
	return &deployment{
		cfg:    core.Config{T: 2, B: 1},
		Driver: workload.KVDriver{},
		check:  checker.CheckAtomicityPerKey,
		active: []cluster{{srvs: srvs, close: srvs.Close}},
	}
}
