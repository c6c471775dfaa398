package chaos

// The named scenario library. Every schedule is a pure function of
// SchedParams — seeded RNG, offsets as fractions of the run duration —
// so `luckychaos -scenario X -seed S` replays the exact adversary.
//
// Budget discipline: scenarios are written for the default t=2, b=1
// shape but scale by p.T/p.B, and the engine's guard enforces the
// model regardless, so a scenario can never accidentally exceed the
// failure assumptions (it would just see events skipped).

import (
	"fmt"
	"math/rand"
	"time"

	"luckystore/internal/simnet"
	"luckystore/internal/storage"
	"luckystore/internal/types"
)

// SchedParams is the deployment shape a schedule is generated for.
type SchedParams struct {
	Servers int
	T, B    int
	Readers int
	// Writers is how many writer identities the deployment runs (1 for
	// the classic SWMR shape); schedules that cut or flap writer links
	// use it to target every identity.
	Writers int
	Seed    int64
	// Duration is the fault window; offsets are fractions of it.
	Duration time.Duration
}

// Scenario is a named, parameterized chaos workload: a traffic shape
// plus a fault schedule.
type Scenario struct {
	Name        string
	Description string
	// NumKeys is how many registers multi-key deployments exercise
	// (single-register deployments collapse to one).
	NumKeys int
	// Writers is how many writer identities contend on every key.
	// Zero or one keeps SWMR traffic; higher values engage the
	// deployment's contending writers (deployments without the
	// capability fall back to one writer benignly).
	Writers int
	// HotFrac concentrates reads on one hot key — the contention knob.
	HotFrac float64
	// WritePace/ReadPace override the workload's default op pacing
	// (zero keeps the defaults).
	WritePace time.Duration
	ReadPace  time.Duration
	// Schedule generates the fault timeline.
	Schedule func(p SchedParams) []Event
}

// keys materializes the scenario's key set.
func (s Scenario) keys() []string {
	n := s.NumKeys
	if n < 1 {
		n = 1
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	return keys
}

// allIDs lists every process of the deployment shape, all writer
// identities included: a partition that left a contending writer
// outside every group would leave it fully connected.
func allIDs(p SchedParams) []types.ProcID {
	ids := types.ServerIDs(p.Servers)
	ids = append(ids, types.WriterIDs(max(p.Writers, 1))...)
	ids = append(ids, types.ReaderIDs(p.Readers)...)
	return ids
}

// isolate builds a partition cutting the given servers from everyone
// else.
func isolate(p SchedParams, servers ...int) [][]types.ProcID {
	cut := make(map[types.ProcID]bool, len(servers))
	minority := make([]types.ProcID, 0, len(servers))
	for _, s := range servers {
		id := types.ServerID(s)
		cut[id] = true
		minority = append(minority, id)
	}
	var rest []types.ProcID
	for _, id := range allIDs(p) {
		if !cut[id] {
			rest = append(rest, id)
		}
	}
	return [][]types.ProcID{minority, rest}
}

// frac returns the offset at fraction f of the duration.
func frac(p SchedParams, f float64) time.Duration {
	return time.Duration(f * float64(p.Duration))
}

// Scenarios is the library of named schedules the smoke matrix and
// luckychaos run.
var Scenarios = []Scenario{
	{
		Name:        "rolling-partition",
		Description: "a one-server partition sweeps across the cluster, healing between cuts",
		NumKeys:     4,
		Schedule: func(p SchedParams) []Event {
			rng := rand.New(rand.NewSource(p.Seed))
			start := rng.Intn(p.Servers)
			const cuts = 5
			var evs []Event
			for k := 0; k < cuts; k++ {
				at := frac(p, (float64(k)+0.25)/cuts)
				evs = append(evs, Event{At: at, Action: Action{
					Kind: ActPartition, Groups: isolate(p, (start+k)%p.Servers),
				}})
			}
			evs = append(evs, Event{At: frac(p, 0.95), Action: Action{Kind: ActHeal}})
			return evs
		},
	},
	{
		Name:        "flapping-link",
		Description: "one client↔server link flaps held/released with delay jitter on the server",
		NumKeys:     2,
		Schedule: func(p SchedParams) []Event {
			rng := rand.New(rand.NewSource(p.Seed))
			srv := types.ServerID(rng.Intn(p.Servers))
			client := types.WriterID()
			if p.Readers > 0 && rng.Intn(2) == 0 {
				client = types.ReaderID(rng.Intn(p.Readers))
			}
			evs := []Event{{At: frac(p, 0.05), Action: Action{
				Kind: ActProcFaults, Proc: srv,
				Faults: simnet.LinkFaults{JitterMax: 2 * time.Millisecond},
			}}}
			const flaps = 8
			for k := 0; k < flaps; k++ {
				at := frac(p, 0.1+0.8*float64(k)/flaps)
				kind := ActHoldLink
				if k%2 == 1 {
					kind = ActReleaseLink
				}
				evs = append(evs,
					Event{At: at, Action: Action{Kind: kind, From: client, To: srv}},
					Event{At: at, Action: Action{Kind: kind, From: srv, To: client}},
				)
			}
			evs = append(evs,
				Event{At: frac(p, 0.92), Action: Action{Kind: ActReleaseLink, From: client, To: srv}},
				Event{At: frac(p, 0.92), Action: Action{Kind: ActReleaseLink, From: srv, To: client}},
				Event{At: frac(p, 0.95), Action: Action{Kind: ActClearFaults}},
			)
			return evs
		},
	},
	{
		Name:        "crash-restarts",
		Description: "t servers crash and restart in sequence (warm where the deployment keeps state)",
		NumKeys:     4,
		Schedule: func(p SchedParams) []Event {
			rng := rand.New(rand.NewSource(p.Seed))
			victims := rng.Perm(p.Servers)[:max(p.T, 1)]
			var evs []Event
			n := float64(len(victims))
			for k, v := range victims {
				down := frac(p, (float64(k)+0.2)/n)
				up := frac(p, (float64(k)+0.7)/n)
				evs = append(evs,
					Event{At: down, Action: Action{Kind: ActCrash, Server: v}},
					Event{At: up, Action: Action{Kind: ActRestart, Server: v}},
				)
			}
			return evs
		},
	},
	{
		Name:        "liars-and-partition",
		Description: "b servers turn Byzantine mid-run while a one-server partition rolls over the honest ones",
		NumKeys:     3,
		Schedule: func(p SchedParams) []Event {
			rng := rand.New(rand.NewSource(p.Seed))
			behaviors := []string{"forge", "stale", "liar", "equivocate"}
			perm := rng.Perm(p.Servers)
			liars := perm[:max(p.B, 1)]
			honest := perm[max(p.B, 1):]
			var evs []Event
			for k, s := range liars {
				evs = append(evs, Event{At: frac(p, 0.15+0.05*float64(k)), Action: Action{
					Kind: ActSwap, Server: s, Behavior: behaviors[rng.Intn(len(behaviors))],
				}})
			}
			for k := 0; k < 2 && len(honest) > 0; k++ {
				evs = append(evs,
					Event{At: frac(p, 0.35+0.3*float64(k)), Action: Action{
						Kind: ActPartition, Groups: isolate(p, honest[rng.Intn(len(honest))]),
					}},
					Event{At: frac(p, 0.55+0.3*float64(k)), Action: Action{Kind: ActHeal}},
				)
			}
			return evs
		},
	},
	{
		Name:        "reader-storm-drop",
		Description: "hot-key reader contention while one server's links drop, duplicate and jitter",
		NumKeys:     2,
		HotFrac:     0.85,
		ReadPace:    300 * time.Microsecond,
		Schedule: func(p SchedParams) []Event {
			rng := rand.New(rand.NewSource(p.Seed))
			lossy := types.ServerID(rng.Intn(p.Servers))
			return []Event{
				{At: frac(p, 0.1), Action: Action{
					Kind: ActProcFaults, Proc: lossy,
					Faults: simnet.LinkFaults{Drop: 0.25, Duplicate: 0.15, JitterMax: time.Millisecond},
				}},
				{At: frac(p, 0.9), Action: Action{Kind: ActClearFaults}},
			}
		},
	},
	{
		Name:        "split-brain-heal",
		Description: "the cluster splits into a majority side (with the writer) and a minority side, then heals — twice",
		NumKeys:     3,
		Schedule: func(p SchedParams) []Event {
			rng := rand.New(rand.NewSource(p.Seed))
			// Minority: t servers plus (when there are ≥2 readers) one
			// reader stranded with them.
			perm := rng.Perm(p.Servers)
			minoritySrvs := perm[:max(p.T, 1)]
			split := func() [][]types.ProcID {
				cut := make(map[types.ProcID]bool)
				var minority []types.ProcID
				for _, s := range minoritySrvs {
					cut[types.ServerID(s)] = true
					minority = append(minority, types.ServerID(s))
				}
				if p.Readers >= 2 {
					r := types.ReaderID(p.Readers - 1)
					cut[r] = true
					minority = append(minority, r)
				}
				var majority []types.ProcID
				for _, id := range allIDs(p) {
					if !cut[id] {
						majority = append(majority, id)
					}
				}
				return [][]types.ProcID{majority, minority}
			}
			return []Event{
				{At: frac(p, 0.15), Action: Action{Kind: ActPartition, Groups: split()}},
				{At: frac(p, 0.45), Action: Action{Kind: ActHeal}},
				{At: frac(p, 0.65), Action: Action{Kind: ActPartition, Groups: split()}},
				{At: frac(p, 0.85), Action: Action{Kind: ActHeal}},
			}
		},
	},
	{
		Name:        "contending-writers",
		Description: "two writer identities race on a hot key while a partition rolls over a server and another crash-restarts",
		NumKeys:     2,
		HotFrac:     0.7,
		Writers:     2,
		Schedule: func(p SchedParams) []Event {
			rng := rand.New(rand.NewSource(p.Seed))
			perm := rng.Perm(p.Servers)
			cutSrv, victim := perm[0], perm[1%len(perm)]
			// The second writer identity loses one server mid-run: its
			// stamp queries and PW rounds must survive on the remaining
			// quorum while the primary writer keeps full connectivity.
			w1 := types.WriterID()
			if p.Writers > 1 {
				w1 = types.WriterIDN(1)
			}
			lossy := types.ServerID(perm[2%len(perm)])
			return []Event{
				{At: frac(p, 0.10), Action: Action{Kind: ActPartition, Groups: isolate(p, cutSrv)}},
				{At: frac(p, 0.30), Action: Action{Kind: ActHeal}},
				{At: frac(p, 0.35), Action: Action{Kind: ActHoldLink, From: w1, To: lossy}},
				{At: frac(p, 0.40), Action: Action{Kind: ActCrash, Server: victim}},
				{At: frac(p, 0.60), Action: Action{Kind: ActReleaseLink, From: w1, To: lossy}},
				{At: frac(p, 0.70), Action: Action{Kind: ActRestart, Server: victim}},
				{At: frac(p, 0.80), Action: Action{Kind: ActPartition, Groups: isolate(p, cutSrv)}},
				{At: frac(p, 0.92), Action: Action{Kind: ActHeal}},
			}
		},
	},
	{
		Name:        "contending-writers-fleet",
		Description: "two writer identities race on hot keys spread across a fleet while a cluster joins, a rack crash-restarts, and an original cluster retires",
		NumKeys:     6,
		HotFrac:     0.6,
		Writers:     2,
		Schedule: func(p SchedParams) []Event {
			rng := rand.New(rand.NewSource(p.Seed))
			victim := rng.Intn(p.Servers)
			// Fleet events land between the crash window's edges so
			// migrations overlap contending traffic; non-fleet deployments
			// skip the join/remove benignly and keep the crash-restart.
			return []Event{
				{At: frac(p, 0.15), Action: Action{Kind: ActJoinCluster}},
				{At: frac(p, 0.30), Action: Action{Kind: ActCrash, Server: victim}},
				{At: frac(p, 0.55), Action: Action{Kind: ActRestart, Server: victim}},
				{At: frac(p, 0.70), Action: Action{Kind: ActRemoveCluster, Server: 0}},
			}
		},
	},
	{
		Name:        "kill-mid-fsync",
		Description: "disks die mid-write (torn frame) and mid-commit (failed fsync); each victim restarts and recovers from its WAL",
		NumKeys:     4,
		Schedule: func(p SchedParams) []Event {
			rng := rand.New(rand.NewSource(p.Seed))
			perm := rng.Perm(p.Servers)
			a, b := perm[0], perm[1%len(perm)]
			// One victim down at a time — well inside t. Every
			// deployment takes the disk faults; on a fleet they hit the
			// victim of every cluster.
			return []Event{
				{At: frac(p, 0.15), Action: Action{Kind: ActDiskFault, Server: a, Disk: storage.FaultTornWrite}},
				{At: frac(p, 0.35), Action: Action{Kind: ActRestart, Server: a}},
				{At: frac(p, 0.45), Action: Action{Kind: ActDiskFault, Server: b, Disk: storage.FaultFsyncError}},
				{At: frac(p, 0.65), Action: Action{Kind: ActRestart, Server: b}},
				{At: frac(p, 0.72), Action: Action{Kind: ActDiskFault, Server: a, Disk: storage.FaultTornWrite}},
				{At: frac(p, 0.88), Action: Action{Kind: ActRestart, Server: a}},
			}
		},
	},
	{
		Name:        "disk-faults-under-traffic",
		Description: "staggered disk deaths on two servers while a third crash-restarts, all under hot-key traffic",
		NumKeys:     3,
		HotFrac:     0.6,
		Schedule: func(p SchedParams) []Event {
			rng := rand.New(rand.NewSource(p.Seed))
			perm := rng.Perm(p.Servers)
			a, b, c := perm[0], perm[1%len(perm)], perm[2%len(perm)]
			// At most two servers faulty at once (a's dead disk plus c's
			// crash), matching the default t=2 budget; smaller shapes see
			// the guard skip the overlap deterministically.
			return []Event{
				{At: frac(p, 0.10), Action: Action{Kind: ActDiskFault, Server: a, Disk: storage.FaultTornWrite}},
				{At: frac(p, 0.20), Action: Action{Kind: ActCrash, Server: c}},
				{At: frac(p, 0.40), Action: Action{Kind: ActRestart, Server: a}},
				{At: frac(p, 0.50), Action: Action{Kind: ActRestart, Server: c}},
				{At: frac(p, 0.60), Action: Action{Kind: ActDiskFault, Server: b, Disk: storage.FaultFsyncError}},
				{At: frac(p, 0.85), Action: Action{Kind: ActRestart, Server: b}},
			}
		},
	},
	{
		Name:        "recover-under-load",
		Description: "waves of up-to-t simultaneous crashes recover by WAL replay while writes and hot reads never pause",
		NumKeys:     4,
		HotFrac:     0.5,
		WritePace:   400 * time.Microsecond,
		Schedule: func(p SchedParams) []Event {
			rng := rand.New(rand.NewSource(p.Seed))
			const waves = 3
			var evs []Event
			for k := 0; k < waves; k++ {
				victims := rng.Perm(p.Servers)[:max(p.T, 1)]
				base := float64(k) / waves
				for j, v := range victims {
					down := frac(p, base+(0.10+0.05*float64(j))/waves)
					up := frac(p, base+(0.55+0.08*float64(j))/waves)
					evs = append(evs,
						Event{At: down, Action: Action{Kind: ActCrash, Server: v}},
						Event{At: up, Action: Action{Kind: ActRestart, Server: v}},
					)
				}
			}
			return evs
		},
	},
	{
		Name:        "rebalance-under-traffic",
		Description: "a cluster joins the fleet mid-run and an original cluster is retired, with continuous traffic across both handoffs",
		NumKeys:     6,
		Schedule: func(p SchedParams) []Event {
			// Deterministic by construction (no RNG draw needed): grow,
			// then shrink. Non-fleet deployments skip both benignly, and
			// the checker verifies every key's history spans the
			// migrations without a timestamp anomaly.
			return []Event{
				{At: frac(p, 0.25), Action: Action{Kind: ActJoinCluster}},
				{At: frac(p, 0.60), Action: Action{Kind: ActRemoveCluster, Server: 0}},
			}
		},
	},
}

// Lookup finds a scenario by name.
func Lookup(name string) (Scenario, error) {
	for _, s := range Scenarios {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("chaos: unknown scenario %q", name)
}

// Names lists the scenario names in library order.
func Names() []string {
	out := make([]string, len(Scenarios))
	for i, s := range Scenarios {
		out[i] = s.Name
	}
	return out
}
