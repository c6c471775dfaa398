package core_test

// The server fleet every simnet cluster runs on: its restart order
// (crash, then recover, then start) and its teardown.

import (
	"errors"
	"reflect"
	"runtime"
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

// holdingBackend is a memory backend whose Replay, once armed, holds
// after the inner replay returns until proceed closes: the window in
// which a restart has read the WAL but not yet started its runner.
type holdingBackend struct {
	storage.Backend
	armed    atomic.Bool
	replayed chan struct{}
	proceed  chan struct{}
}

func (b *holdingBackend) Replay(fn func(payload []byte) error) error {
	err := b.Backend.Replay(fn)
	if b.armed.CompareAndSwap(true, false) {
		close(b.replayed)
		<-b.proceed
	}
	return err
}

// holdingProvider opens holding backends over memory ones. The fleet
// opens them while it is built, on the test's goroutine.
type holdingProvider struct {
	mem   *storage.MemProvider
	backs map[string]*holdingBackend
}

func (p *holdingProvider) Open(name string) (storage.Backend, error) {
	b, err := p.mem.Open(name)
	if err != nil {
		return nil, err
	}
	hb := &holdingBackend{Backend: b, replayed: make(chan struct{}), proceed: make(chan struct{})}
	p.backs[name] = hb
	return hb, nil
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
			p := &holdingProvider{mem: storage.NewMemProvider(nil), backs: map[string]*holdingBackend{}}
			srvs, write, closeFn, err := f.open(p)
			if err != nil {
				t.Fatal(err)
			}
			defer closeFn()
			if err := write("v1"); err != nil {
				t.Fatal(err)
			}
			srvs.CrashServer(1) // quorum is now {s0, s2}
			hb := p.backs[string(types.ServerID(0))]
			hb.armed.Store(true)
			restarted := make(chan error, 1)
			go func() { restarted <- srvs.RestartServer(0) }()
			select {
			case <-hb.replayed:
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
			close(hb.proceed)
			if err := <-restarted; err != nil {
				t.Fatal(err)
			}
			if err := <-wrote; err != nil {
				t.Fatal(err)
			}
			srvs.CrashServer(0) // quiesce: memory and WAL now hold still

			got := snapshot(t, srvs.ServerAutomaton(0))
			want := f.fresh()
			if _, err := storage.Recover(srvs.ServerBackend(0), want); err != nil {
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

	// A store over external endpoints has no fleet: its hooks refuse.
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
	for name, hook := range map[string]func() error{
		"RestartServer":       func() error { return st.RestartServer(0) },
		"RestartServerFresh":  func() error { return st.RestartServerFresh(0) },
		"SwapServerAutomaton": func() error { return st.SwapServerAutomaton(0, fault.Mute()) },
	} {
		if err := hook(); err == nil || !strings.Contains(err.Error(), "does not own its servers") {
			t.Errorf("external store %s = %v, want a does-not-own-its-servers error", name, err)
		}
	}
}
