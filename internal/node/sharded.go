package node

import (
	"sync"
	"sync/atomic"

	"luckystore/internal/transport"
	"luckystore/internal/wire"
)

// ShardedRunner drives a set of shard automata from one endpoint with a
// pool of worker goroutines: a dispatcher routes each inbound envelope
// to the shard the route function names, and that shard's worker — the
// only goroutine ever stepping that automaton — processes it. Because
// shard ownership is exclusive, shard automata need no locking of their
// own, and no lock is shared between shards on the hot path (each
// shard's queue has its own, uncontended, internal mutex).
//
// The runner presents the same crash interface as Runner, applied to
// the whole pool: Crash stops the process (all shards at once —
// machines fail, not shards), CrashAfterSteps counts automaton steps
// across every shard, and Steps reports the pool-wide total. Step
// budgets are enforced with an atomic ticket, so "handle exactly n more
// messages, then stop" holds even under concurrent workers.
type ShardedRunner struct {
	ep     transport.Endpoint
	shards []Automaton
	route  func(wire.Message) int
	queues []*transport.Mailbox

	steps      atomic.Int64
	crashAfter atomic.Int64 // crash once steps reaches this value; <0 means never

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewShardedRunner creates a runner pumping ep into the shard automata.
// route maps a message to a shard index (out-of-range results are
// clamped into [0, len(shards))); it must be pure so every message for
// one key lands on one shard. The runner does not start until Start.
func NewShardedRunner(ep transport.Endpoint, shards []Automaton, route func(wire.Message) int) *ShardedRunner {
	if len(shards) == 0 {
		panic("node: sharded runner needs at least one shard")
	}
	r := &ShardedRunner{
		ep:     ep,
		shards: shards,
		route:  route,
		queues: make([]*transport.Mailbox, len(shards)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for i := range r.queues {
		r.queues[i] = transport.NewMailbox()
	}
	r.crashAfter.Store(-1)
	return r
}

// Start launches the dispatcher and one worker per shard. Calling Start
// more than once, or after Crash, is a no-op.
func (r *ShardedRunner) Start() {
	r.startOnce.Do(func() {
		var wg sync.WaitGroup
		wg.Add(1 + len(r.shards))
		go func() {
			defer wg.Done()
			r.dispatch()
		}()
		for i := range r.shards {
			go func(i int) {
				defer wg.Done()
				r.work(i)
			}(i)
		}
		go func() {
			wg.Wait()
			// Closing the queues after every worker has exited joins any
			// overflow drainer still running: no goroutine outlives the
			// runner.
			for _, q := range r.queues {
				q.Close()
			}
			close(r.done)
		}()
	})
}

// Crash stops the process immediately, as a crash failure: messages
// queued on any shard but not yet stepped are never processed. Crash is
// idempotent, safe to call concurrently, and waits for every pump
// goroutine to exit. Crashing a runner that was never started marks it
// permanently stopped.
func (r *ShardedRunner) Crash() {
	r.stopOnce.Do(func() { close(r.stop) })
	// If Start never ran, consume the once so the pumps can no longer
	// launch; the queues must be closed here since the Start path that
	// normally closes them will never run.
	r.startOnce.Do(func() {
		for _, q := range r.queues {
			q.Close()
		}
		close(r.done)
	})
	<-r.done
}

// CrashAfterSteps schedules a crash after n further automaton steps,
// counted across all shards: the pool reserves step tickets atomically,
// handles exactly n more messages, and stops.
func (r *ShardedRunner) CrashAfterSteps(n int) {
	r.crashAfter.Store(r.steps.Load() + int64(n))
}

// Steps reports the number of messages processed so far across all
// shards.
func (r *ShardedRunner) Steps() int64 { return r.steps.Load() }

// QueueLen reports the total number of envelopes queued across every
// shard mailbox but not yet stepped — the live backpressure signal the
// admin metrics export per server.
func (r *ShardedRunner) QueueLen() int {
	n := 0
	for _, q := range r.queues {
		n += q.Len()
	}
	return n
}

// Stop is an alias of Crash: in this model a graceful shutdown and a
// crash are indistinguishable to the rest of the system.
func (r *ShardedRunner) Stop() { r.Crash() }

// dispatch routes inbound envelopes to shard queues. Queues are
// unbounded, so a slow shard never blocks the dispatcher (or starves
// the other shards).
func (r *ShardedRunner) dispatch() {
	for {
		select {
		case <-r.stop:
			return
		case env, ok := <-r.ep.Recv():
			if !ok {
				r.stopOnce.Do(func() { close(r.stop) })
				return
			}
			i := r.route(env.Msg)
			if i < 0 || i >= len(r.queues) {
				i = 0
			}
			_ = r.queues[i].Put(env)
		}
	}
}

// work is shard i's pump: it owns r.shards[i] exclusively, including
// the worker-local step-output buffer reused across its steps.
func (r *ShardedRunner) work(i int) {
	var scratch []transport.Outgoing
	for {
		select {
		case <-r.stop:
			return
		case env, ok := <-r.queues[i].Out():
			if !ok {
				return
			}
			if !r.reserveStep() {
				return
			}
			scratch = StepInto(r.shards[i], env.From, env.Msg, scratch[:0])
			// Best effort: the network may be shutting down underneath a
			// still-running server; a correct server has nothing better
			// to do with a send error than keep serving.
			_ = transport.SendAll(r.ep, scratch)
		}
	}
}

// reserveStep claims one step ticket, or triggers the scheduled crash
// and reports false if the budget is exhausted. The CAS loop makes the
// budget exact across concurrent workers: each ticket admits one
// message, the (n+1)-th reservation crashes the pool instead.
func (r *ShardedRunner) reserveStep() bool {
	for {
		s := r.steps.Load()
		if ca := r.crashAfter.Load(); ca >= 0 && s >= ca {
			r.stopOnce.Do(func() { close(r.stop) })
			return false
		}
		if r.steps.CompareAndSwap(s, s+1) {
			return true
		}
	}
}
