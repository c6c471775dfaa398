package core

import (
	"errors"
	"fmt"
	"sync"

	"luckystore/internal/node"
	"luckystore/internal/storage"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Servers is a simnet server fleet: n server processes s0…s(n−1) over
// a network the caller builds, each a node.Runner stepping the shards
// its factory returns. Every simnet cluster runs its servers through
// it, so crash, restart and swap mean one thing everywhere. With a
// storage.Provider, every server whose automaton can snapshot itself
// (storage.Automaton) writes through its own backend, named by server
// identity (storage.RecoverShards); a Byzantine behavior has no durable
// state and runs in memory.
//
// The fault hooks are for one coordinating goroutine (a test or a
// chaos schedule); they do not synchronize with each other. QueueLen
// may run concurrently with them.
type Servers struct {
	net   transport.Network
	build func(i int) (node.Automaton, []node.Automaton, func(wire.Message) int)
	met   *storage.DurableMetrics
	srvs  []server

	mu      sync.RWMutex // guards runners[i] replacement against QueueLen
	runners []*node.Runner
}

// server is what a warm restart without storage revives — the
// automaton, its shards and their route — and the backend, if any.
type server struct {
	a      node.Automaton
	shards []node.Automaton
	route  func(wire.Message) int
	back   storage.Backend
}

// errNotOwned is what a nil fleet's hooks return: the deployment is a
// client over external endpoints.
var errNotOwned = errors.New("deployment does not own its servers")

// NewServers starts n servers on net. build(i) returns server i's
// automaton, the shards its runner steps (nil: the automaton is the
// one shard) and their route (nil with one shard); every restart that
// needs fresh state calls it again. store and met may be nil. The
// fleet closes net on Close, and on a failed start.
func NewServers(net transport.Network, n int, build func(i int) (a node.Automaton, shards []node.Automaton, route func(wire.Message) int), store storage.Provider, met *storage.DurableMetrics) (*Servers, error) {
	s := &Servers{net: net, build: build, met: met, srvs: make([]server, n), runners: make([]*node.Runner, n)}
	for i := range s.srvs {
		s.fresh(i)
		if _, durable := s.srvs[i].a.(storage.Automaton); durable && store != nil {
			back, err := store.Open(string(types.ServerID(i)))
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("server %d storage: %w", i, err)
			}
			s.srvs[i].back = back
		}
		if err := s.start(i); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// fresh gives server i new state from build.
func (s *Servers) fresh(i int) {
	srv := &s.srvs[i]
	srv.a, srv.shards, srv.route = s.build(i)
	if srv.shards == nil {
		srv.shards = []node.Automaton{srv.a}
	}
	if srv.route == nil {
		srv.route = oneShard
	}
}

// start recovers server i from its backend and runs it.
func (s *Servers) start(i int) error {
	srv := &s.srvs[i]
	shards, err := storage.RecoverShards(srv.back, srv.a, srv.shards, types.ServerID(i), s.met)
	if err != nil {
		return fmt.Errorf("server %d recovery: %w", i, err)
	}
	return s.run(i, shards, srv.route)
}

// run starts a runner stepping shards on server i's endpoint.
func (s *Servers) run(i int, shards []node.Automaton, route func(wire.Message) int) error {
	ep, err := s.net.Endpoint(types.ServerID(i))
	if err != nil {
		return fmt.Errorf("server %d: %w", i, err)
	}
	r := node.NewShardedRunner(ep, shards, route)
	s.mu.Lock()
	s.runners[i] = r
	s.mu.Unlock()
	r.Start()
	return nil
}

// check validates i for a fault hook.
func (s *Servers) check(i int) error {
	if s == nil {
		return errNotOwned
	}
	if i < 0 || i >= len(s.srvs) {
		return fmt.Errorf("server %d out of range [0,%d)", i, len(s.srvs))
	}
	return nil
}

// ServerBackend returns server i's storage backend, nil when it runs
// in memory. Chaos deployments arm injected disk faults through it.
func (s *Servers) ServerBackend(i int) storage.Backend { return s.srvs[i].back }

// ServerAutomaton returns the automaton of server i, for state
// assertions in tests: build's, or the one its last restart recovered
// — never a swapped-in one.
func (s *Servers) ServerAutomaton(i int) node.Automaton { return s.srvs[i].a }

// CrashServer crash-stops server i. It is idempotent.
func (s *Servers) CrashServer(i int) { s.runners[i].Crash() }

// CrashServerAfterSteps schedules server i to crash after n more
// processed messages.
func (s *Servers) CrashServerAfterSteps(i, n int) { s.runners[i].CrashAfterSteps(n) }

// RestartServer restarts server i after a crash — crash-recovery with
// stable storage, so the restarted server is merely slow, not faulty,
// in the model's terms. With a backend, fresh state from build is
// rebuilt by replaying the server's WAL; without one the automaton is
// kept, which models stable storage only for in-process crashes.
// Messages still queued in its inbox were "in transit": they are
// processed after the restart. A running server is crashed first, so
// recovery sees everything the old process ever acknowledged.
func (s *Servers) RestartServer(i int) error { return s.restart(i, false) }

// RestartServerFresh restarts server i with fresh state from build AND
// a wiped backend: a crash-recovery with NO stable storage — the only
// amnesiac path. An amnesiac server answers protocol-correctly from
// initial state, which the model can only classify as Byzantine, so
// schedules must count fresh restarts against b.
func (s *Servers) RestartServerFresh(i int) error { return s.restart(i, true) }

// restart is the one restart order: crash the old runner, then wipe
// (fresh) or recover (warm) the backend, then start the new runner.
func (s *Servers) restart(i int, wipe bool) error {
	if err := s.check(i); err != nil {
		return err
	}
	s.runners[i].Crash() // idempotent; joins the old pump and workers
	srv := &s.srvs[i]
	if wipe && srv.back != nil {
		if err := srv.back.Wipe(); err != nil {
			return fmt.Errorf("fresh-restart server %d: %w", i, err)
		}
	}
	if wipe || srv.back != nil {
		s.fresh(i)
	}
	return s.start(i)
}

// SwapServerAutomaton crash-stops server i and brings it back running
// a as its one shard — the hook chaos schedules use to turn a server
// Byzantine (an internal/fault behavior) mid-run. a runs without
// storage; the server's backend and automaton are left intact, so a
// later RestartServer recovers the last correct state.
func (s *Servers) SwapServerAutomaton(i int, a node.Automaton) error {
	if err := s.check(i); err != nil {
		return err
	}
	s.runners[i].Crash()
	return s.run(i, []node.Automaton{a}, oneShard)
}

// oneShard routes every message to shard 0.
func oneShard(wire.Message) int { return 0 }

// QueueLen reports the step jobs queued on server i's current runner
// and not yet stepped: the per-server backpressure gauge.
func (s *Servers) QueueLen(i int) int {
	s.mu.RLock()
	r := s.runners[i]
	s.mu.RUnlock()
	return r.QueueLen()
}

// Close closes the network, joining every runner, then closes the
// backends (flushing anything pending). A nil fleet closes nothing.
func (s *Servers) Close() {
	if s == nil {
		return
	}
	_ = s.net.Close() // closing endpoints unblocks every runner
	for _, r := range s.runners {
		if r != nil {
			r.Stop()
		}
	}
	for _, srv := range s.srvs {
		if srv.back != nil {
			_ = srv.back.Close()
		}
	}
}
