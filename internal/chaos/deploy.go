package chaos

// Deployments: one fault surface over every way this repo can run the
// protocol. A deployment is one or more clusters — each a core.Servers
// fleet, on simnet (core, kv or regular servers) or on loopback TCP (S
// sharded KV servers with file WALs) — with a router in front when
// there is more than one. Its workload driver generates identical
// traffic everywhere; server-indexed faults hit server i of every
// active cluster through the fleet's hooks.

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/core"
	"luckystore/internal/fault"
	"luckystore/internal/kv"
	"luckystore/internal/node"
	"luckystore/internal/regular"
	"luckystore/internal/ring"
	"luckystore/internal/router"
	"luckystore/internal/simnet"
	"luckystore/internal/storage"
	"luckystore/internal/tcpnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
	"luckystore/internal/workload"
)

// Deployment is a running system the chaos engine can hurt; Open builds
// it. All fault methods are called from the engine's single schedule
// goroutine.
type Deployment interface {
	workload.Driver
	// Kind names the deployment flavor (one of Kinds).
	Kind() string
	// Servers reports the server count S of each cluster.
	Servers() int
	// Budget reports the deployment's failure model (t, b).
	Budget() (t, b int)
	// Net returns the simulated network for partition/link faults, or
	// nil when there is none to script — real sockets, or a fleet whose
	// clusters each run their own simnet. The engine skips network
	// actions then.
	Net() *simnet.Network
	// Crash stops server i.
	Crash(i int) error
	// Restart brings server i back from its storage; fresh wipes the
	// storage first (an amnesiac restart).
	Restart(i int, fresh bool) error
	// Swap replaces server i with the named Byzantine behavior.
	Swap(i int, behavior string, seed int64) error
	// Check verifies a recorded history against the deployment's
	// consistency contract (atomicity, or regularity for the regular
	// variant), per key.
	Check(ops []checker.Op) []checker.Violation
	// Close tears the deployment down.
	Close()

	// skip reports why the deployment cannot honor a, "" when it can;
	// do executes a once skip and the budget guard have let it through.
	skip(a Action) string
	do(a Action, seed int64) error
}

// deployments is Open's table: per kind, the cluster kind (its
// opener), how many clusters (more than one puts a router in front),
// and the consistency contract its histories are checked against.
var deployments = []struct {
	kind     string
	open     opener
	clusters int
	check    func([]checker.Op) []checker.Violation
}{
	{"core", openCore, 1, checker.CheckAtomicityPerKey},
	{"kv", openKV, 1, checker.CheckAtomicityPerKey},
	{"tcpkv", openTCP, 1, checker.CheckAtomicityPerKey},
	{"router", openKV, 2, checker.CheckAtomicityPerKey},
	{"tcprouter", openTCP, 2, checker.CheckAtomicityPerKey},
	{"regular", openRegular, 1, checker.CheckRegularityPerKey},
}

// Kinds lists the deployment kinds Open accepts.
func Kinds() []string {
	out := make([]string, len(deployments))
	for i, row := range deployments {
		out[i] = row.kind
	}
	return out
}

// Open builds a deployment by kind name — the entry point luckychaos,
// luckyload and the smoke matrix use — in the stock chaos
// configuration: t=2, b=1 (S = 6 servers), fw=0, room for one
// Byzantine server or one amnesiac restart plus one crash, with fr = 1.
// The short round timeout keeps slow paths quick under scripted
// asynchrony. writers > 1 opens that many writer identities on every
// cluster, joined ones included; only the regular variant stays
// single-writer, and the engine clamps multi-writer scenarios to SWMR
// traffic on it (Report.MWClamped).
func Open(kind string, readers, writers int) (Deployment, error) {
	for _, row := range deployments {
		if row.kind != kind {
			continue
		}
		d := &deployment{kind: kind, check: row.check, cfg: core.Config{
			T: 2, B: 1, Writers: writers, NumReaders: readers,
			RoundTimeout: 8 * time.Millisecond,
			OpTimeout:    20 * time.Second,
		}}
		if err := d.start(row.open, row.clusters); err != nil {
			d.Close()
			return nil, err
		}
		return d, nil
	}
	return nil, fmt.Errorf("chaos: unknown deployment %q (%s)", kind, strings.Join(Kinds(), "|"))
}

// deployment is the one Deployment implementation. Its traffic goes
// through the embedded driver: the lone cluster's, or the router's.
type deployment struct {
	workload.Driver
	kind   string
	cfg    core.Config
	net    *simnet.Network // the lone simnet cluster's network, else nil
	check  func([]checker.Op) []checker.Violation
	active []cluster // the fault targets

	// Fleets only: the router in front, the opener of joining clusters,
	// and the clusters retired from the ring, whose servers stay up for
	// lazy handoffs until Close.
	r       *router.Router
	open    opener
	retired []cluster
}

// routerSeed fixes the ring seed for chaos fleets: placement must be a
// pure function of the schedule seed alone, and the schedule already
// owns all randomness, so the ring gets a constant.
const routerSeed = 1

// start opens n clusters, fronted by a router when n > 1.
func (d *deployment) start(open opener, n int) error {
	backends := make(map[ring.ClusterID]router.Backend, n)
	for i := range n {
		c, drv, err := open(d.cfg)
		if err != nil {
			return err
		}
		c.id = ring.ID(i)
		d.active = append(d.active, c)
		d.Driver = drv
		if kd, ok := drv.(workload.KVDriver); ok {
			backends[ring.ID(i)] = kd.S
		}
	}
	if n == 1 {
		d.net = d.active[0].net
		return nil
	}
	r, err := router.New(router.Options{Seed: routerSeed, Readers: d.cfg.NumReaders}, backends)
	if err != nil {
		return err
	}
	d.r, d.open, d.Driver = r, open, workload.RouterDriver{R: r}
	return nil
}

func (d *deployment) Kind() string                               { return d.kind }
func (d *deployment) Servers() int                               { return d.cfg.S() }
func (d *deployment) Budget() (int, int)                         { return d.cfg.T, d.cfg.B }
func (d *deployment) Net() *simnet.Network                       { return d.net }
func (d *deployment) Check(ops []checker.Op) []checker.Violation { return d.check(ops) }

func (d *deployment) Crash(i int) error {
	return d.each(i, func(c cluster) error { return c.srvs.CrashServer(i) })
}

func (d *deployment) Restart(i int, fresh bool) error {
	return d.each(i, func(c cluster) error {
		if fresh {
			return c.srvs.RestartServerFresh(i)
		}
		return c.srvs.RestartServer(i)
	})
}

func (d *deployment) Swap(i int, behavior string, seed int64) error {
	return d.each(i, func(c cluster) error {
		// One automaton per cluster: behaviors are stateful.
		a, err := behaviorFor(behavior, seed, d.MultiKey())
		if err != nil {
			return err
		}
		return c.srvs.SwapServerAutomaton(i, a)
	})
}

// each applies f to every active cluster: a fault on server i hits
// server i of every cluster — "rack i" in fleet terms — so a fleet's
// per-cluster budget (t, b) is stressed everywhere at once while
// staying within the model.
func (d *deployment) each(i int, f func(c cluster) error) error {
	if i < 0 || i >= d.cfg.S() {
		return fmt.Errorf("chaos: server %d out of range [0,%d)", i, d.cfg.S())
	}
	for _, c := range d.active {
		if err := f(c); err != nil {
			return fmt.Errorf("cluster %s: %w", c.id, err)
		}
	}
	return nil
}

func (d *deployment) skip(a Action) string {
	switch a.Kind {
	case ActPartition, ActHeal, ActHoldLink, ActReleaseLink, ActProcFaults, ActClearFaults:
		if d.net == nil {
			return "no simulated network"
		}
	case ActJoinCluster, ActRemoveCluster:
		if d.r == nil {
			return "deployment cannot rebalance"
		}
		if a.Kind == ActRemoveCluster && len(d.active) <= 1 {
			return "last cluster"
		}
	case ActCrash, ActRestart, ActSwap, ActDiskFault:
	default:
		return fmt.Sprintf("unknown action %q", a.Kind)
	}
	return ""
}

func (d *deployment) do(a Action, seed int64) error {
	switch a.Kind {
	case ActPartition:
		d.net.SetPartition(a.Groups...)
	case ActHeal:
		d.net.Heal()
	case ActHoldLink:
		d.net.Hold(a.From, a.To)
	case ActReleaseLink:
		d.net.Release(a.From, a.To)
	case ActProcFaults:
		d.net.SetProcFaults(a.Proc, a.Faults)
	case ActClearFaults:
		d.net.ClearAllFaults()
	case ActCrash:
		return d.Crash(a.Server)
	case ActRestart:
		return d.Restart(a.Server, a.Fresh)
	case ActSwap:
		return d.Swap(a.Server, a.Behavior, seed)
	case ActDiskFault:
		return d.each(a.Server, func(c cluster) error {
			// A crashed or swapped server has no open disk: its restart
			// reopens a healthy one, dropping a fault armed here anyway.
			if f, ok := c.srvs.ServerBackend(a.Server).(*storage.Fault); ok {
				return f.Arm(a.Disk)
			}
			return nil
		})
	case ActJoinCluster:
		return d.join()
	case ActRemoveCluster:
		return d.remove(a.Server)
	}
	return nil
}

// join opens one more cluster and adds it to the fleet.
func (d *deployment) join() error {
	c, drv, err := d.open(d.cfg)
	if err != nil {
		return err
	}
	c.id = ring.ID(len(d.active) + len(d.retired))
	if err := d.r.AddCluster(c.id, drv.(workload.KVDriver).S); err != nil {
		c.close()
		return err
	}
	d.active = append(d.active, c)
	return nil
}

// remove retires the i-th active cluster (ring order, wrapped modulo
// the active count). It stops being a fault target but keeps serving:
// lazily migrating keys still read their pair out of it through the
// router-owned client store.
func (d *deployment) remove(i int) error {
	ids := d.r.Clusters()
	id := ids[i%len(ids)]
	if err := d.r.RemoveCluster(id); err != nil {
		return err
	}
	j := slices.IndexFunc(d.active, func(c cluster) bool { return c.id == id })
	d.retired = append(d.retired, d.active[j])
	d.active = slices.Delete(d.active, j, j+1)
	return nil
}

func (d *deployment) Close() {
	if d.r != nil {
		_ = d.r.Close() // closes every client store, active and retired
	}
	for _, c := range slices.Concat(d.active, d.retired) {
		c.close()
	}
}

// cluster is one quorum group of S servers a deployment can hurt, under
// its ring id: its fleet, its simulated network (nil over TCP) and its
// close. The fleet's hooks carry crashes, restarts, swaps and disk
// faults: every backend is opened through a storage.FaultProvider, so
// ServerBackend is a *storage.Fault to arm.
type cluster struct {
	id    ring.ClusterID
	srvs  *core.Servers
	net   *simnet.Network
	close func()
}

// opener starts one cluster under cfg and returns it with the driver
// of its client side — a workload.KVDriver for the clusters a router
// can front.
type opener func(cfg core.Config) (cluster, workload.Driver, error)

// behaviorFor builds a named Byzantine behavior. keyed lifts it to the
// multi-register wire protocol.
func behaviorFor(name string, seed int64, keyed bool) (node.Automaton, error) {
	var b fault.Behavior
	switch name {
	case "mute":
		b = fault.Mute()
	case "forge":
		b = fault.ForgeHighTS(types.TS(1_000_000+seed%1000), types.Value(fmt.Sprintf("forged-%d", seed)))
	case "stale":
		b = fault.StaleBottom()
	case "liar":
		b = fault.RandomLiar(seed)
	case "equivocate":
		b = fault.Equivocator(map[types.ProcID]types.Tagged{
			types.ReaderID(0): {TS: 900_000, Val: "eq0"},
			types.ReaderID(1): {TS: 900_001, Val: "eq1"},
		}, types.Bottom())
	default:
		return nil, fmt.Errorf("chaos: unknown behavior %q", name)
	}
	if keyed {
		b = fault.Keyed(b)
	}
	return b, nil
}

// memFaults builds a simnet cluster's storage: fault-injectable memory
// backends. The "disk" survives in-process restarts, so a warm restart
// is a genuine WAL replay.
func memFaults(factory func() storage.Automaton) *storage.FaultProvider {
	return storage.NewFaultProvider(storage.NewMemProvider(factory))
}

func openCore(cfg core.Config) (cluster, workload.Driver, error) {
	c, err := core.NewCluster(cfg, core.WithStorage(memFaults(func() storage.Automaton { return core.NewServer() })))
	if err != nil {
		return cluster{}, nil, err
	}
	return cluster{srvs: c.Servers, net: c.Sim(), close: c.Close}, workload.Register(c.Deployment), nil
}

// openRegular opens the Appendix D regular variant, single-writer by
// construction.
func openRegular(cfg core.Config) (cluster, workload.Driver, error) {
	c, err := regular.NewDurableCluster(regular.Config{
		T: cfg.T, B: cfg.B, NumReaders: cfg.NumReaders,
		RoundTimeout: cfg.RoundTimeout, OpTimeout: cfg.OpTimeout,
	}, memFaults(func() storage.Automaton { return core.NewRegularServer() }))
	if err != nil {
		return cluster{}, nil, err
	}
	return cluster{srvs: c.Servers, net: c.Sim(), close: c.Close}, workload.Register(c.Deployment), nil
}

// openKV opens a sharded KV store on its own simnet with cfg.Writers
// writer identities, each binding stamps under its own ⟨seq, writer⟩
// component.
func openKV(cfg core.Config) (cluster, workload.Driver, error) {
	st, err := kv.Open(cfg, kv.WithStorage(memFaults(kv.NewStorageAutomaton)))
	if err != nil {
		return cluster{}, nil, err
	}
	return cluster{srvs: st.Servers, net: st.Sim(), close: st.Close}, workload.KVDriver{S: st}, nil
}

// openTCP starts S sharded KV servers on loopback TCP, each writing a
// file WAL under the cluster's temp directory, and dials a store to
// them that speaks as cfg.Writers writer identities over one set of
// readers: the real-deployment shape, where a restart re-binds the
// server's address and reopening its directory runs the genuine
// fsck/torn-tail path.
func openTCP(cfg core.Config) (cluster, workload.Driver, error) {
	dir, err := os.MkdirTemp("", "luckychaos-tcp-")
	if err != nil {
		return cluster{}, nil, fmt.Errorf("chaos tcp: data dir: %w", err)
	}
	addrs := tcpnet.Loopback{} // every server's address once the fleet is up
	srvs, err := core.NewServers(addrs, cfg.S(), func(int) (node.Automaton, []node.Automaton, func(wire.Message) int) {
		srv := kv.NewShardedServerAutomatonInstrumented(0, nil)
		return srv, srv.Shards(), srv.Route()
	}, storage.NewFaultProvider(storage.NewDirProvider(dir, kv.NewStorageAutomaton)), nil)
	shut := func() {
		srvs.Close()
		_ = os.RemoveAll(dir)
	}
	if err != nil {
		shut()
		return cluster{}, nil, err
	}
	st, err := kv.Connect(cfg, func(id types.ProcID) (transport.Endpoint, error) {
		return tcpnet.Dial(id, addrs)
	})
	if err != nil {
		shut()
		return cluster{}, nil, err
	}
	return cluster{srvs: srvs, close: func() { st.Close(); shut() }}, workload.KVDriver{S: st}, nil
}
