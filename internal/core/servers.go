package core

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"luckystore/internal/node"
	"luckystore/internal/storage"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Servers is the one server fleet: n server processes s0…s(n−1), each
// serving the shards its factory returns on a Transport — a
// node.Runner on a network endpoint (Endpoints: every simnet
// deployment) or a listener on loopback TCP (tcpnet.Loopback). Crash, restart
// and swap mean one thing on both, the order a process crash has:
//
//   - a crash stops the process and closes its backend;
//   - a restart reopens the backend through the storage.Provider,
//     wipes it when fresh, replays it and serves again;
//   - a swap serves a Byzantine behavior without storage, and a later
//     restart recovers the last correct state.
//
// With a provider, every server whose automaton can snapshot itself
// (storage.Automaton) writes through its own backend, named by server
// identity (storage.RecoverShards); a Byzantine behavior runs in memory.
//
// The fault hooks are for one coordinating goroutine (a test or a
// chaos schedule); QueueLen may run concurrently with them. Every hook
// checks its index; on a nil fleet (a deployment over servers it does
// not own) the hooks return an error and the accessors zero values.
type Servers struct {
	tr    Transport
	build func(i int) (node.Automaton, []node.Automaton, func(wire.Message) int)
	store storage.Provider
	met   *storage.DurableMetrics
	srvs  []server

	mu    sync.RWMutex // guards procs[i] replacement against QueueLen
	procs []io.Closer
}

// server is what a warm restart without storage revives — the
// automaton, its shards and their route — and the backend while the
// process runs.
type server struct {
	a      node.Automaton
	shards []node.Automaton
	route  func(wire.Message) int
	back   storage.Backend
}

// Transport is the one part of a fleet that differs between simnet and
// TCP. Serve starts server i stepping shards under route and returns
// the process, whose Close is its crash: idempotent, and returning once
// every goroutine the process started has exited. Close releases the
// transport before the fleet crashes its processes.
type Transport interface {
	Serve(i int, shards []node.Automaton, route func(wire.Message) int) (io.Closer, error)
	Close() error
}

// Endpoints serves every server as a node.Runner on its endpoint of
// net, which the fleet closes on Close.
func Endpoints(net transport.Network) Transport { return endpoints{net} }

type endpoints struct{ net transport.Network }

func (e endpoints) Serve(i int, shards []node.Automaton, route func(wire.Message) int) (io.Closer, error) {
	ep, err := e.net.Endpoint(types.ServerID(i))
	if err != nil {
		return nil, err
	}
	r := node.NewShardedRunner(ep, shards, route)
	r.Start()
	return r, nil
}

func (e endpoints) Close() error { return e.net.Close() } // unblocks every runner

// errNotOwned is what a nil fleet's hooks return: the deployment is a
// client over external endpoints.
var errNotOwned = errors.New("deployment does not own its servers")

// NewServers starts n servers on tr. build(i) returns server i's
// automaton, the shards its process steps (nil: the automaton is the
// one shard) and their route (nil with one shard); every restart that
// needs fresh state calls it again. store and met may be nil. The
// fleet closes tr on Close, and on a failed start.
func NewServers(tr Transport, n int, build func(i int) (a node.Automaton, shards []node.Automaton, route func(wire.Message) int), store storage.Provider, met *storage.DurableMetrics) (*Servers, error) {
	s := &Servers{tr: tr, build: build, store: store, met: met, srvs: make([]server, n), procs: make([]io.Closer, n)}
	for i := range s.srvs {
		s.fresh(i)
		if err := s.start(i, false); err != nil {
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

// durable reports whether server i writes through a backend.
func (s *Servers) durable(i int) bool {
	_, ok := s.srvs[i].a.(storage.Automaton)
	return ok && s.store != nil
}

// start opens server i's backend if it is durable, wiped first when
// wipe, recovers its shards from it and serves them.
func (s *Servers) start(i int, wipe bool) error {
	srv := &s.srvs[i]
	if s.durable(i) {
		back, err := s.store.Open(string(types.ServerID(i)))
		if err != nil {
			return fmt.Errorf("server %d storage: %w", i, err)
		}
		srv.back = back
		if wipe {
			if err := back.Wipe(); err != nil {
				return fmt.Errorf("fresh-restart server %d: %w", i, err)
			}
		}
	}
	shards, err := storage.RecoverShards(srv.back, srv.a, srv.shards, types.ServerID(i), s.met)
	if err != nil {
		return fmt.Errorf("server %d recovery: %w", i, err)
	}
	return s.serve(i, shards, srv.route)
}

// serve starts server i's process stepping shards.
func (s *Servers) serve(i int, shards []node.Automaton, route func(wire.Message) int) error {
	p, err := s.tr.Serve(i, shards, route)
	if err != nil {
		return fmt.Errorf("server %d: %w", i, err)
	}
	s.mu.Lock()
	s.procs[i] = p
	s.mu.Unlock()
	return nil
}

// crash stops server i's process and closes its backend, as a dying
// process closes its files. A faulted disk fails its final flush by
// design; the next restart recovers whatever made it to the medium.
func (s *Servers) crash(i int) {
	if p := s.procs[i]; p != nil {
		_ = p.Close()
	}
	if srv := &s.srvs[i]; srv.back != nil {
		_ = srv.back.Close()
		srv.back = nil
	}
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

// ServerBackend returns server i's open storage backend: nil when it
// runs in memory or is crashed. A crashed server's storage is read by
// reopening it through the provider, as a restarted process would.
func (s *Servers) ServerBackend(i int) storage.Backend {
	if s.check(i) != nil {
		return nil
	}
	return s.srvs[i].back
}

// ServerAutomaton returns the automaton of server i, for state
// assertions in tests: build's, or the one its last restart recovered
// — never a swapped-in one.
func (s *Servers) ServerAutomaton(i int) node.Automaton {
	if s.check(i) != nil {
		return nil
	}
	return s.srvs[i].a
}

// CrashServer crash-stops server i and closes its backend. It is
// idempotent.
func (s *Servers) CrashServer(i int) error {
	if err := s.check(i); err != nil {
		return err
	}
	s.crash(i)
	return nil
}

// CrashServerAfterSteps schedules server i to crash after n more
// processed messages; its backend closes at the next restart. Only a
// transport that counts steps (Endpoints) can honor it.
func (s *Servers) CrashServerAfterSteps(i, n int) error {
	if err := s.check(i); err != nil {
		return err
	}
	c, ok := s.procs[i].(interface{ CrashAfterSteps(int) })
	if !ok {
		return fmt.Errorf("server %d: its transport counts no steps", i)
	}
	c.CrashAfterSteps(n)
	return nil
}

// RestartServer restarts server i after a crash — crash-recovery with
// stable storage, so the restarted server is merely slow, not faulty,
// in the model's terms. With a backend, fresh state from build is
// rebuilt by replaying the server's reopened WAL; without one the
// automaton is kept, which models stable storage only for in-process
// crashes. On Endpoints, messages still queued in its inbox were "in
// transit": they are processed after the restart. A running server is
// crashed first, so recovery sees everything the old process ever
// acknowledged.
func (s *Servers) RestartServer(i int) error { return s.restart(i, false) }

// RestartServerFresh restarts server i with fresh state from build AND
// a wiped backend: a crash-recovery with NO stable storage — the only
// amnesiac path. An amnesiac server answers protocol-correctly from
// initial state, which the model can only classify as Byzantine, so
// schedules must count fresh restarts against b.
func (s *Servers) RestartServerFresh(i int) error { return s.restart(i, true) }

// restart is the one restart order: crash the old process, then
// reopen, wipe (fresh) and recover its backend, then serve again.
func (s *Servers) restart(i int, wipe bool) error {
	if err := s.check(i); err != nil {
		return err
	}
	s.crash(i)
	if wipe || s.durable(i) {
		s.fresh(i)
	}
	return s.start(i, wipe)
}

// SwapServerAutomaton crash-stops server i and brings it back serving
// a as its one shard — the hook chaos schedules use to turn a server
// Byzantine (an internal/fault behavior) mid-run. a runs without
// storage; the server's automaton is kept and its backend stays on the
// provider, so a later RestartServer recovers the last correct state.
func (s *Servers) SwapServerAutomaton(i int, a node.Automaton) error {
	if err := s.check(i); err != nil {
		return err
	}
	s.crash(i)
	return s.serve(i, []node.Automaton{a}, oneShard)
}

// oneShard routes every message to shard 0.
func oneShard(wire.Message) int { return 0 }

// QueueLen reports the step jobs queued on server i's current process
// and not yet stepped: the per-server backpressure gauge. It reads 0 on
// a transport whose processes do not report it (tcpnet.Loopback).
func (s *Servers) QueueLen(i int) int {
	if s.check(i) != nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if q, ok := s.procs[i].(interface{ QueueLen() int }); ok {
		return q.QueueLen()
	}
	return 0
}

// Close closes the transport, then crashes every server, joining its
// goroutines and flushing its backend. A nil fleet closes nothing.
func (s *Servers) Close() {
	if s == nil {
		return
	}
	_ = s.tr.Close()
	for i := range s.srvs {
		s.crash(i)
	}
}
