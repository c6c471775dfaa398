package chaos

// Deployments: one fault surface over every way this repo can run the
// protocol. A deployment is one or more clusters of one of two kinds —
// a simnet cluster (core, kv or regular servers) or S sharded KV
// servers on loopback TCP with file WALs — with a router in front when
// there is more than one. Its workload driver generates identical
// traffic everywhere; server-indexed faults hit server i of every
// active cluster.

import (
	"fmt"
	"os"
	"path/filepath"
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
	active []member // the fault targets

	// Fleets only: the router in front, the opener of joining clusters,
	// and the clusters retired from the ring, whose servers stay up for
	// lazy handoffs until Close.
	r       *router.Router
	open    opener
	retired []member
}

// member is one cluster of a deployment under its ring id.
type member struct {
	id ring.ClusterID
	c  cluster
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
		d.active = append(d.active, member{ring.ID(i), c})
		d.Driver = drv
		if kd, ok := drv.(workload.KVDriver); ok {
			backends[ring.ID(i)] = kd.S
		}
	}
	if n == 1 {
		d.net = d.active[0].c.sim()
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
	return d.each(i, func(c cluster) error { return c.crash(i) })
}

func (d *deployment) Restart(i int, fresh bool) error {
	return d.each(i, func(c cluster) error { return c.restart(i, fresh) })
}

func (d *deployment) Swap(i int, behavior string, seed int64) error {
	return d.each(i, func(c cluster) error {
		// One automaton per cluster: behaviors are stateful.
		a, err := behaviorFor(behavior, seed, d.MultiKey())
		if err != nil {
			return err
		}
		return c.swap(i, a)
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
	for _, m := range d.active {
		if err := f(m.c); err != nil {
			return fmt.Errorf("cluster %s: %w", m.id, err)
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
		return d.each(a.Server, func(c cluster) error { return c.diskFault(a.Server, a.Disk) })
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
	id := ring.ID(len(d.active) + len(d.retired))
	if err := d.r.AddCluster(id, drv.(workload.KVDriver).S); err != nil {
		c.close()
		return err
	}
	d.active = append(d.active, member{id, c})
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
	j := slices.IndexFunc(d.active, func(m member) bool { return m.id == id })
	d.retired = append(d.retired, d.active[j])
	d.active = slices.Delete(d.active, j, j+1)
	return nil
}

func (d *deployment) Close() {
	if d.r != nil {
		_ = d.r.Close() // closes every client store, active and retired
	}
	for _, m := range slices.Concat(d.active, d.retired) {
		m.c.close()
	}
}

// cluster is one quorum group of S servers a deployment can hurt.
type cluster interface {
	crash(i int) error
	// restart brings server i back from its storage, wiped first when
	// fresh.
	restart(i int, fresh bool) error
	swap(i int, a node.Automaton) error
	// diskFault arms a storage fault kind (storage.FaultTornWrite,
	// storage.FaultFsyncError) on server i's backend. It fires on the
	// server's next mutating operation, muting it; restart recovers.
	diskFault(i int, kind string) error
	// sim is the cluster's simulated network, nil over TCP.
	sim() *simnet.Network
	close()
}

// opener starts one cluster under cfg and returns it with the driver
// of its client side — a workload.KVDriver for the clusters a router
// can front.
type opener func(cfg core.Config) (cluster, workload.Driver, error)

// serverName is the per-server backend name used with storage
// providers ("s0", "s1", …).
func serverName(i int) string { return string(types.ServerID(i)) }

// armDisk arms kind on server i's fault wrapper.
func armDisk(fp *storage.FaultProvider, i int, kind string) error {
	f := fp.Fault(serverName(i))
	if f == nil {
		return fmt.Errorf("chaos: server %d has no storage backend", i)
	}
	return f.Arm(kind)
}

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

// ---- simnet clusters ----

// simCluster is a simnet cluster — its server fleet, network and
// close — whose servers write through in-memory backends behind fault
// wrappers: the "disk" survives in-process restarts, so a warm restart
// is a genuine WAL replay, and schedules can arm disk faults on it.
type simCluster struct {
	srvs *core.Servers
	net  *simnet.Network
	fp   *storage.FaultProvider
	shut func()
}

func (c simCluster) crash(i int) error                  { c.srvs.CrashServer(i); return nil }
func (c simCluster) swap(i int, a node.Automaton) error { return c.srvs.SwapServerAutomaton(i, a) }
func (c simCluster) diskFault(i int, kind string) error { return armDisk(c.fp, i, kind) }
func (c simCluster) sim() *simnet.Network               { return c.net }
func (c simCluster) close()                             { c.shut() }

// restart heals server i's disk first: the restarted process got a
// working disk back; what survives on it is recovery's problem.
func (c simCluster) restart(i int, fresh bool) error {
	if f := c.fp.Fault(serverName(i)); f != nil {
		f.Heal()
	}
	if fresh {
		return c.srvs.RestartServerFresh(i)
	}
	return c.srvs.RestartServer(i)
}

// memFaults builds a simnet cluster's storage: fault-injectable memory
// backends.
func memFaults(factory func() storage.Automaton) *storage.FaultProvider {
	return storage.NewFaultProvider(storage.NewMemProvider(factory))
}

func openCore(cfg core.Config) (cluster, workload.Driver, error) {
	fp := memFaults(func() storage.Automaton { return core.NewServer() })
	c, err := core.NewCluster(cfg, core.WithStorage(fp))
	if err != nil {
		return nil, nil, err
	}
	return simCluster{c.Servers, c.Sim(), fp, c.Close}, workload.Register(c.Deployment), nil
}

// openRegular opens the Appendix D regular variant, single-writer by
// construction.
func openRegular(cfg core.Config) (cluster, workload.Driver, error) {
	fp := memFaults(func() storage.Automaton { return core.NewRegularServer() })
	c, err := regular.NewDurableCluster(regular.Config{
		T: cfg.T, B: cfg.B, NumReaders: cfg.NumReaders,
		RoundTimeout: cfg.RoundTimeout, OpTimeout: cfg.OpTimeout,
	}, fp)
	if err != nil {
		return nil, nil, err
	}
	return simCluster{c.Servers, c.Sim(), fp, c.Close}, workload.Register(c.Deployment), nil
}

// openKV opens a sharded KV store on its own simnet with cfg.Writers
// writer identities, each binding stamps under its own ⟨seq, writer⟩
// component.
func openKV(cfg core.Config) (cluster, workload.Driver, error) {
	fp := memFaults(kv.NewStorageAutomaton)
	st, err := kv.Open(cfg, kv.WithStorage(fp))
	if err != nil {
		return nil, nil, err
	}
	return simCluster{st.Servers, st.Sim(), fp, st.Close}, workload.KVDriver{S: st}, nil
}

// ---- loopback-TCP clusters ----

// tcpCluster is S sharded KV servers on loopback TCP and the client
// store dialed to them — the real-deployment shape, where a crash is a
// listener teardown and a restart a rebind. Every server writes a file
// WAL under the cluster's temp directory, so a restart reopens it
// (running the genuine fsck/torn-tail path) and recovers the pre-crash
// state.
type tcpCluster struct {
	dir   string
	prov  *storage.FaultProvider
	srvs  []*tcpnet.Server
	backs []storage.Backend
	addrs []string
	st    *kv.Store
}

// openTCP starts a TCP cluster and dials its store, which speaks as
// cfg.Writers writer identities over one set of readers.
func openTCP(cfg core.Config) (cluster, workload.Driver, error) {
	dir, err := os.MkdirTemp("", "luckychaos-tcp-")
	if err != nil {
		return nil, nil, fmt.Errorf("chaos tcp: data dir: %w", err)
	}
	c := &tcpCluster{dir: dir,
		prov:  storage.NewFaultProvider(storage.NewDirProvider(dir, kv.NewStorageAutomaton)),
		srvs:  make([]*tcpnet.Server, cfg.S()),
		backs: make([]storage.Backend, cfg.S()),
		addrs: make([]string, cfg.S()),
	}
	addrMap := make(map[types.ProcID]string, cfg.S())
	for i := range c.srvs {
		if c.srvs[i], err = c.listen(i, "127.0.0.1:0"); err != nil {
			c.close()
			return nil, nil, err
		}
		c.addrs[i] = c.srvs[i].Addr()
		addrMap[types.ServerID(i)] = c.addrs[i]
	}
	c.st, err = kv.Connect(cfg, func(id types.ProcID) (transport.Endpoint, error) {
		return tcpnet.Dial(id, addrMap)
	})
	if err != nil {
		c.close()
		return nil, nil, err
	}
	return c, workload.KVDriver{S: c.st}, nil
}

// listen starts server i on addr over a backend opened from the
// cluster's storage: recovery replays whatever the backend holds, then
// every shard shares the backend's group commit.
func (c *tcpCluster) listen(i int, addr string) (*tcpnet.Server, error) {
	back, err := c.prov.Open(serverName(i))
	if err != nil {
		return nil, err
	}
	srv := kv.NewShardedServerAutomatonInstrumented(0, nil)
	sh, err := storage.RecoverShards(back, srv, srv.Shards(), types.ServerID(i), nil)
	var s *tcpnet.Server
	if err == nil {
		s, err = tcpnet.ListenSharded(types.ServerID(i), addr, sh, srv.Route())
	}
	if err != nil {
		_ = back.Close()
		return nil, err
	}
	c.backs[i] = back
	return s, nil
}

// rebind re-listens server i, crashed first, on its old address,
// retrying briefly while the kernel releases the port.
func (c *tcpCluster) rebind(i int, listen func(addr string) (*tcpnet.Server, error)) error {
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		var srv *tcpnet.Server
		if srv, err = listen(c.addrs[i]); err == nil {
			c.srvs[i] = srv
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("chaos: rebind %s: %w", c.addrs[i], err)
}

// closeBack releases server i's backend handle, ignoring errors — a
// faulted disk fails its final flush by design, and the reopen path
// recovers whatever made it to the medium.
func (c *tcpCluster) closeBack(i int) {
	if c.backs[i] != nil {
		_ = c.backs[i].Close()
		c.backs[i] = nil
	}
}

func (c *tcpCluster) crash(i int) error {
	err := c.srvs[i].Close()
	c.closeBack(i) // the process died; its file handles went with it
	return err
}

// restart crashes server i — the old process may not step while the
// new one recovers — and reopens its data directory: fsck truncates
// any torn tail a disk fault left, then the WAL replays into a fresh
// server.
func (c *tcpCluster) restart(i int, fresh bool) error {
	_ = c.crash(i)
	if fresh {
		// Amnesiac restart: the disk burned down with the process.
		if err := os.RemoveAll(filepath.Join(c.dir, serverName(i))); err != nil {
			return err
		}
	}
	return c.rebind(i, func(addr string) (*tcpnet.Server, error) { return c.listen(i, addr) })
}

func (c *tcpCluster) swap(i int, a node.Automaton) error {
	_ = c.crash(i) // the Byzantine automaton runs without storage
	return c.rebind(i, func(addr string) (*tcpnet.Server, error) {
		return tcpnet.Listen(types.ServerID(i), addr, a)
	})
}

func (c *tcpCluster) diskFault(i int, kind string) error { return armDisk(c.prov, i, kind) }
func (c *tcpCluster) sim() *simnet.Network               { return nil }

func (c *tcpCluster) close() {
	if c.st != nil {
		c.st.Close()
	}
	for i, s := range c.srvs {
		if s != nil {
			_ = s.Close()
		}
		c.closeBack(i)
	}
	_ = os.RemoveAll(c.dir)
}
