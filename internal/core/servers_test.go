package core_test

// The server fleet every simnet cluster runs on: its restart order
// (crash, then recover, then start) and its teardown.

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"luckystore/internal/abd"
	"luckystore/internal/core"
	"luckystore/internal/fault"
	"luckystore/internal/kv"
	"luckystore/internal/node"
	"luckystore/internal/regular"
	"luckystore/internal/simnet"
	"luckystore/internal/storage"
	"luckystore/internal/tcpnet"
	"luckystore/internal/transport"
	"luckystore/internal/twophase"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

func fleetCfg() core.Config {
	return core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1,
		RoundTimeout: 5 * time.Millisecond, OpTimeout: 5 * time.Second}
}

func regularCfg() regular.Config {
	c := fleetCfg()
	return regular.Config{T: c.T, B: c.B, NumReaders: c.NumReaders,
		RoundTimeout: c.RoundTimeout, OpTimeout: c.OpTimeout}
}

// holdingProvider opens memory backends whose Replay, once the
// provider is armed, holds after the inner replay returns until
// proceed closes: the window in which a restart has read the WAL but
// not yet started serving. A restart reopens its backend, so the hold
// is armed on the provider, not on a backend.
type holdingProvider struct {
	mem      *storage.MemProvider
	armed    atomic.Bool
	replayed chan struct{}
	proceed  chan struct{}
}

func newHoldingProvider() *holdingProvider {
	return &holdingProvider{mem: storage.NewMemProvider(nil), replayed: make(chan struct{}), proceed: make(chan struct{})}
}

func (p *holdingProvider) Open(name string) (storage.Backend, error) {
	b, err := p.mem.Open(name)
	if err != nil {
		return nil, err
	}
	return holdingBackend{b, p}, nil
}

type holdingBackend struct {
	storage.Backend
	p *holdingProvider
}

func (b holdingBackend) Replay(fn func(payload []byte) error) error {
	err := b.Backend.Replay(fn)
	if b.p.armed.CompareAndSwap(true, false) {
		close(b.p.replayed)
		<-b.p.proceed
	}
	return err
}

// durableFleet is one simnet cluster kind with storage, reduced to what
// the restart-order test drives: its fleet, a write, and teardown.
type durableFleet struct {
	name  string
	open  func(p storage.Provider) (srvs *core.Servers, write func(types.Value) error, close func(), err error)
	fresh func() storage.Automaton // what a fresh Recover replays into
}

var durableFleets = []durableFleet{
	{"core", func(p storage.Provider) (*core.Servers, func(types.Value) error, func(), error) {
		c, err := core.NewCluster(fleetCfg(), core.WithStorage(p))
		if err != nil {
			return nil, nil, nil, err
		}
		return c.Servers, c.Writer().Write, c.Close, nil
	}, func() storage.Automaton { return core.NewServer() }},
	{"regular", func(p storage.Provider) (*core.Servers, func(types.Value) error, func(), error) {
		c, err := regular.NewDurableCluster(regularCfg(), p)
		if err != nil {
			return nil, nil, nil, err
		}
		return c.Servers, c.Writer().Write, c.Close, nil
	}, func() storage.Automaton { return core.NewRegularServer() }},
	{"kv", func(p storage.Provider) (*core.Servers, func(types.Value) error, func(), error) {
		st, err := kv.Open(fleetCfg(), kv.WithStorage(p), kv.WithShards(2))
		if err != nil {
			return nil, nil, nil, err
		}
		return st.Servers, func(v types.Value) error { return st.Put("k", v) }, st.Close, nil
	}, kv.NewStorageAutomaton},
}

// snapshot lists the records a's state snapshots to.
func snapshot(t *testing.T, a node.Automaton) []wire.Envelope {
	t.Helper()
	var out []wire.Envelope
	if err := a.(storage.Snapshotter).SnapshotRecords(func(from types.ProcID, m wire.Message) error {
		out = append(out, wire.Envelope{From: from, Msg: m})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// A warm restart must not lose what the old process acknowledged:
// the old runner is crashed before recovery reads the WAL, so nothing
// it steps can land in the WAL but miss the restarted server's memory.
// The test writes while recovery holds between replay and start — a
// write that needs s0, since s1 is down — and then checks the
// restarted server's state against a fresh replay of its WAL.
func TestRestartCrashesBeforeRecovering(t *testing.T) {
	for _, f := range durableFleets {
		t.Run(f.name, func(t *testing.T) {
			p := newHoldingProvider()
			srvs, write, closeFn, err := f.open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer closeFn()
			if err := write("v1"); err != nil {
				t.Fatal(err)
			}
			srvs.CrashServer(1) // quorum is now {s0, s2}
			p.armed.Store(true)
			restarted := make(chan error, 1)
			go func() { restarted <- srvs.RestartServer(0) }()
			select {
			case <-p.replayed:
			case <-time.After(5 * time.Second):
				t.Fatal("restart never replayed the WAL")
			}
			wrote := make(chan error, 1)
			go func() { wrote <- write("v2") }()
			select { // a server that still steps finishes the write in the window
			case err := <-wrote:
				wrote <- err
			case <-time.After(200 * time.Millisecond):
			}
			close(p.proceed)
			if err := <-restarted; err != nil {
				t.Fatal(err)
			}
			if err := <-wrote; err != nil {
				t.Fatal(err)
			}
			srvs.CrashServer(0) // quiesce: memory and WAL now hold still

			got := snapshot(t, srvs.ServerAutomaton(0))
			want := f.fresh()
			back, err := p.Open(string(types.ServerID(0))) // as a restarted process would
			if err != nil {
				t.Fatal(err)
			}
			if _, err := storage.Recover(back, want); err != nil {
				t.Fatal(err)
			}
			if w := snapshot(t, want); !reflect.DeepEqual(got, w) {
				t.Errorf("restarted s0 holds %v, its WAL replays to %v", got, w)
			}
		})
	}
}

// Every simnet cluster joins every goroutine it started on Close.
func TestOpenCloseLeavesNoGoroutines(t *testing.T) {
	cfg := fleetCfg()
	mem := func(f func() storage.Automaton) storage.Provider { return storage.NewMemProvider(f) }
	rows := []struct {
		name string
		open func() (write func(types.Value) error, close func(), err error)
	}{
		{"core", func() (func(types.Value) error, func(), error) {
			c, err := core.NewCluster(cfg)
			if err != nil {
				return nil, nil, err
			}
			return c.Writer().Write, c.Close, nil
		}},
		{"core-storage", func() (func(types.Value) error, func(), error) {
			c, err := core.NewCluster(cfg, core.WithStorage(mem(func() storage.Automaton { return core.NewServer() })))
			if err != nil {
				return nil, nil, err
			}
			return c.Writer().Write, c.Close, nil
		}},
		{"regular-durable", func() (func(types.Value) error, func(), error) {
			c, err := regular.NewDurableCluster(regularCfg(), mem(func() storage.Automaton { return core.NewRegularServer() }))
			if err != nil {
				return nil, nil, err
			}
			return c.Writer().Write, c.Close, nil
		}},
		{"twophase", func() (func(types.Value) error, func(), error) {
			c, err := twophase.NewCluster(twophase.Config{T: cfg.T, B: cfg.B, NumReaders: 1,
				RoundTimeout: cfg.RoundTimeout, OpTimeout: cfg.OpTimeout})
			if err != nil {
				return nil, nil, err
			}
			return c.Writer().Write, c.Close, nil
		}},
		{"abd", func() (func(types.Value) error, func(), error) {
			c, err := abd.NewCluster(abd.Config{T: cfg.T, NumReaders: 1, OpTimeout: cfg.OpTimeout})
			if err != nil {
				return nil, nil, err
			}
			return c.Writer().Write, c.Close, nil
		}},
		{"kv", func() (func(types.Value) error, func(), error) {
			st, err := kv.Open(cfg, kv.WithShards(2))
			if err != nil {
				return nil, nil, err
			}
			return func(v types.Value) error { return st.Put("k", v) }, st.Close, nil
		}},
		{"kv-writers", func() (func(types.Value) error, func(), error) {
			cfg := cfg
			cfg.Writers = 2
			st, err := kv.Open(cfg, kv.WithShards(2))
			if err != nil {
				return nil, nil, err
			}
			return func(v types.Value) error { // every writer role opens its client
				return errors.Join(st.PutAs(0, "k", v), st.PutAs(1, "k", v))
			}, st.Close, nil
		}},
		{"kv-storage", func() (func(types.Value) error, func(), error) {
			st, err := kv.Open(cfg, kv.WithShards(2), kv.WithStorage(mem(kv.NewStorageAutomaton)))
			if err != nil {
				return nil, nil, err
			}
			return func(v types.Value) error { return st.Put("k", v) }, st.Close, nil
		}},
		{"tcp", func() (func(types.Value) error, func(), error) {
			addrs := tcpnet.Loopback{}
			srvs, err := core.NewServers(addrs, cfg.S(), kvServer, mem(kv.NewStorageAutomaton), nil)
			if err != nil {
				return nil, nil, err
			}
			st, err := kv.Connect(cfg, func(id types.ProcID) (transport.Endpoint, error) { return tcpnet.Dial(id, addrs) })
			if err != nil {
				srvs.Close()
				return nil, nil, err
			}
			return func(v types.Value) error { // a restart re-binds a listener
				return errors.Join(st.Put("k", v), srvs.RestartServer(0), st.Put("k", v))
			}, func() { st.Close(); srvs.Close() }, nil
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			write, closeFn, err := row.open()
			if err != nil {
				t.Fatal(err)
			}
			if err := write("v"); err != nil {
				t.Error(err)
			}
			closeFn()
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(5 * time.Millisecond)
			}
			if n > base {
				t.Errorf("%d goroutines after Close, %d before Open", n, base)
			}
		})
	}

}

// fleetTransports are the two ways a fleet serves its servers, each
// over a storage provider and with a kv store dialed to the fleet.
var fleetTransports = []struct {
	name string
	open func(t *testing.T) (*core.Servers, *kv.Store)
}{
	{"simnet", func(t *testing.T) (*core.Servers, *kv.Store) {
		cfg := fleetCfg()
		sim, err := simnet.New(slices.Concat(types.ServerIDs(cfg.S()), types.WriterIDs(1), types.ReaderIDs(cfg.NumReaders)))
		if err != nil {
			t.Fatal(err)
		}
		return openFleet(t, core.Endpoints(sim), storage.NewMemProvider(kv.NewStorageAutomaton), sim.Endpoint)
	}},
	{"tcp", func(t *testing.T) (*core.Servers, *kv.Store) {
		addrs := tcpnet.Loopback{} // filled as the fleet starts, before the store dials
		return openFleet(t, addrs, storage.NewDirProvider(t.TempDir(), kv.NewStorageAutomaton), func(id types.ProcID) (transport.Endpoint, error) {
			return tcpnet.Dial(id, addrs)
		})
	}},
}

// openFleet starts fleetCfg's sharded kv servers on tr over p, then a
// store over the endpoints dial returns.
func openFleet(t *testing.T, tr core.Transport, p storage.Provider, dial func(types.ProcID) (transport.Endpoint, error)) (*core.Servers, *kv.Store) {
	t.Helper()
	cfg := fleetCfg()
	srvs, err := core.NewServers(tr, cfg.S(), kvServer, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srvs.Close)
	st, err := kv.Connect(cfg, dial)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return srvs, st
}

// kvServer builds a sharded kv server of two shards.
func kvServer(int) (node.Automaton, []node.Automaton, func(wire.Message) int) {
	srv := kv.NewShardedServerAutomatonInstrumented(2, nil)
	return srv, srv.Shards(), srv.Route()
}

// TestFleetContract runs one table on both transports: a crash, a
// restart and a swap mean the same thing on each.
func TestFleetContract(t *testing.T) {
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	get := func(t *testing.T, st *kv.Store) types.Tagged {
		t.Helper()
		v, err := st.Get(0, "k")
		must(t, err)
		return v
	}
	cases := []struct {
		name string
		run  func(t *testing.T, srvs *core.Servers, st *kv.Store)
	}{
		{"warm restart serves the acknowledged stamp", func(t *testing.T, srvs *core.Servers, st *kv.Store) {
			must(t, st.Put("k", "v1"))
			acked := get(t, st)
			for i := range fleetCfg().S() { // no server keeps anything in memory
				must(t, srvs.CrashServer(i))
			}
			for i := range fleetCfg().S() {
				must(t, srvs.RestartServer(i))
			}
			if got := get(t, st); got != acked {
				t.Errorf("reborn fleet serves %+v, acknowledged %+v", got, acked)
			}
			must(t, st.Put("k", "v2"))
		}},
		{"fresh restart is empty", func(t *testing.T, srvs *core.Servers, st *kv.Store) {
			must(t, st.Put("k", "v1"))
			must(t, srvs.RestartServerFresh(2))
			if n := srvs.ServerBackend(2).Stats().Records; n != 0 {
				t.Errorf("fresh restart left %d records in the backend", n)
			}
			if recs := snapshot(t, srvs.ServerAutomaton(2)); len(recs) != 0 {
				t.Errorf("fresh-restarted automaton holds %v, want ⊥", recs)
			}
			if got := get(t, st); got.Val != "v1" {
				t.Errorf("read %q after a fresh restart, want v1", got.Val)
			}
		}},
		{"swap then restart recovers the last correct state", func(t *testing.T, srvs *core.Servers, st *kv.Store) {
			must(t, st.Put("k", "v1"))
			correct := snapshot(t, srvs.ServerAutomaton(1))
			must(t, srvs.SwapServerAutomaton(1, fault.Keyed(fault.Mute())))
			must(t, st.Put("k", "v2")) // s1 is mute: it misses v2
			must(t, srvs.RestartServer(1))
			if got := snapshot(t, srvs.ServerAutomaton(1)); !reflect.DeepEqual(got, correct) {
				t.Errorf("s1 recovered %v, its last correct state was %v", got, correct)
			}
			if got := get(t, st); got.Val != "v2" {
				t.Errorf("read %q after the swap, want v2", got.Val)
			}
		}},
		{"a crash is idempotent", func(t *testing.T, srvs *core.Servers, st *kv.Store) {
			must(t, st.Put("k", "v1"))
			must(t, srvs.CrashServer(0))
			must(t, srvs.CrashServer(0))
			if b := srvs.ServerBackend(0); b != nil {
				t.Errorf("crashed s0 keeps backend %v open", b)
			}
			must(t, st.Put("k", "v2"))
			must(t, srvs.RestartServer(0))
			if got := get(t, st); got.Val != "v2" {
				t.Errorf("read %q, want v2", got.Val)
			}
		}},
	}
	for _, tr := range fleetTransports {
		t.Run(tr.name, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					srvs, st := tr.open(t)
					c.run(t, srvs, st)
				})
			}
		})
	}
}

// Every hook checks its index, and a nil fleet — a store over servers
// it does not own — refuses every hook.
func TestFleetHooksCheckTheirIndex(t *testing.T) {
	cfg := fleetCfg()
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sim, err := simnet.New(append(types.WriterIDs(1), types.ReaderIDs(cfg.NumReaders)...))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	st, err := kv.Connect(cfg, sim.Endpoint)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	S := cfg.S()
	for _, at := range []struct {
		name string
		srvs *core.Servers
		i    int
	}{{"-1", c.Servers, -1}, {"S", c.Servers, S}, {"nil fleet", st.Servers, 0}} {
		for name, hook := range map[string]func() error{
			"CrashServer":           func() error { return at.srvs.CrashServer(at.i) },
			"CrashServerAfterSteps": func() error { return at.srvs.CrashServerAfterSteps(at.i, 1) },
			"RestartServer":         func() error { return at.srvs.RestartServer(at.i) },
			"RestartServerFresh":    func() error { return at.srvs.RestartServerFresh(at.i) },
			"SwapServerAutomaton":   func() error { return at.srvs.SwapServerAutomaton(at.i, fault.Mute()) },
		} {
			err := hook()
			switch {
			case err == nil:
				t.Errorf("%s(%s) succeeded, want an error", name, at.name)
			case at.srvs == nil && !strings.Contains(err.Error(), "does not own its servers"):
				t.Errorf("%s(%s) = %v, want a does-not-own-its-servers error", name, at.name, err)
			}
		}
		if at.srvs.ServerBackend(at.i) != nil || at.srvs.ServerAutomaton(at.i) != nil || at.srvs.QueueLen(at.i) != 0 {
			t.Errorf("accessors at %s return non-zero values", at.name)
		}
	}
	// tcpnet counts no steps, so a loopback fleet refuses a scheduled
	// crash rather than never crashing.
	srvs, _ := fleetTransports[1].open(t)
	if err := srvs.CrashServerAfterSteps(0, 1); err == nil {
		t.Error("CrashServerAfterSteps on loopback TCP succeeded, want an error")
	}
}
