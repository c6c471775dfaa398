// Package node runs server automata: a StepPool steps them, and a
// Runner pumps an endpoint's inbox into one and sends the produced
// replies. An automaton has one step, StepAppend, which appends its
// replies to the caller's buffer. Separating the (deterministic,
// synchronous) automaton from its (concurrent) driver keeps protocol
// logic unit-testable and makes crash injection trivial — crashing a
// server is stopping its pump.
package node

import (
	"sync"
	"sync/atomic"

	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Automaton is a deterministic message-driven state machine: one step
// consumes a message and appends the messages to send to the caller's
// buffer, so a driver with a reusable buffer steps without a slice
// allocation per message. Implementations are not required to be
// concurrency-safe; a StepPool serializes the steps of each shard.
//
// Buffer ownership (the step-sink contract, DESIGN.md §5): the callee
// only appends to out and returns the extended slice, leaving out's
// entries untouched; a message it drops returns out as given. The
// caller owns the backing array and may reuse it as soon as it has
// finished with the returned slice; the callee must not retain the
// slice (or any subslice) past the call. The message *values* appended
// are handed off for good — they travel through mailboxes and sockets —
// so a callee must never append a message it plans to mutate later.
type Automaton interface {
	StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing
}

// NonBlocking is an optional Automaton capability: StepNeverBlocks
// answers true when the step never waits on another step, connection
// or peer — it computes on memory and may wait on local storage. A
// driver may then run the step on a goroutine with other duties (a
// Runner's pump, a tcpnet connection's read goroutine: StepPool.TryStep),
// which must never wait for work only it could unblock. Any other
// automaton, and any wrapper that does not forward the answer, is only
// ever stepped on a worker that has nothing else to do.
type NonBlocking interface {
	StepNeverBlocks() bool
}

// AppendStepper and StepInto remain only because the benchmark module
// (bench/) names them: AppendStepper is Automaton, and StepInto calls
// a.StepAppend. ROADMAP item 1, which rewrites bench/'s traced fleet,
// removes them.
type AppendStepper = Automaton

// StepInto is a.StepAppend(from, m, out); see AppendStepper.
func StepInto(a Automaton, from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	return a.StepAppend(from, m, out)
}

// Runner drives shard automata from one endpoint: one server process.
// On simnet its one owner is core.Servers. Its pump goroutine reads the
// endpoint and hands each envelope to a StepPool over the shards, which
// Start builds: the pump
// steps the envelope itself when its shard has nothing outstanding
// (StepPool.TryStep: idle, and the automaton answers NonBlocking true),
// or submits it to the shard's worker otherwise. Either way the replies
// go back out through the endpoint. Stepping inline only behind an
// empty backlog keeps every shard's messages in arrival order, so
// per-(peer, key) FIFO holds end to end — the rule tcpnet's read loops
// follow with their connection's pipeline.
//
// The runner is one process to the rest of the system: Crash stops
// every shard at once (machines fail, not shards), CrashAfterSteps
// counts messages across every shard, and Steps reports the total.
type Runner struct {
	ep     transport.Endpoint
	shards []Automaton
	route  func(wire.Message) int
	pool   atomic.Pointer[StepPool] // built by Start; nil until then
	send   func([]transport.Outgoing)
	queued backlog

	steps      atomic.Int64 // messages admitted: one ticket each
	crashAfter atomic.Int64 // admit no message once steps reaches this; <0 means never

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// backlog is the pooled path's StepSink: it sends a step's replies and
// counts, per shard, the messages the pump submitted that have not
// stepped yet. Only the pump raises a count, so reading zero there
// means nothing of the shard's is queued or running ahead of the next
// message.
type backlog struct {
	ep transport.Endpoint
	n  []atomic.Int32
}

func (b *backlog) StepDone(i int, out []transport.Outgoing) {
	// Best effort: the network may be shutting down underneath a
	// still-running server; a correct server has nothing better to do
	// with a send error than keep serving.
	_ = transport.SendAll(b.ep, out)
	b.n[i].Add(-1)
}

// NewShardedRunner creates a runner pumping ep into the shard automata.
// route maps a message to a shard index (out-of-range results are
// clamped into [0, len(shards))); it must be pure so every message for
// one key lands on one shard. The runner does not start until Start.
func NewShardedRunner(ep transport.Endpoint, shards []Automaton, route func(wire.Message) int) *Runner {
	if len(shards) == 0 {
		panic("node: runner needs at least one shard")
	}
	r := &Runner{
		ep:     ep,
		shards: shards,
		route:  route,
		send:   func(out []transport.Outgoing) { _ = transport.SendAll(ep, out) },
		queued: backlog{ep: ep, n: make([]atomic.Int32, len(shards))},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	r.crashAfter.Store(-1)
	return r
}

// Start builds the step pool and launches the pump. Calling Start more
// than once, or after Crash, is a no-op.
func (r *Runner) Start() {
	r.startOnce.Do(func() {
		p := NewStepPool(r.shards, r.route)
		r.pool.Store(p)
		go r.run(p)
	})
}

// Crash stops the process immediately, as a crash failure: messages
// queued on any shard but not yet stepped are never processed, matching
// the model where a crashed process takes no further steps. Crash is
// idempotent, safe to call concurrently, and returns once the pump and
// every shard worker have exited. Crashing a runner that was never
// started marks it permanently stopped (an initially crashed server).
func (r *Runner) Crash() {
	r.stopOnce.Do(func() { close(r.stop) })
	// If Start never ran, consume the once so the pump can no longer
	// launch, and close done ourselves; if Start ran first, this is a
	// no-op and the pump closes done on exit.
	r.startOnce.Do(func() { close(r.done) })
	if p := r.pool.Load(); p != nil {
		p.Close() // drops queued jobs, and frees a pump waiting for queue room
	}
	<-r.done
}

// CrashAfterSteps schedules a crash after n further messages: the pump
// admits exactly n more, each of which still steps, and stops at the
// next — used to script failures "in the middle" of an operation.
func (r *Runner) CrashAfterSteps(n int) {
	r.crashAfter.Store(r.steps.Load() + int64(n))
}

// Steps reports the number of messages admitted so far across all
// shards; each steps unless the runner crashes first.
func (r *Runner) Steps() int64 { return r.steps.Load() }

// QueueLen reports the step jobs queued across every shard and not yet
// stepped (StepPool.QueueLen) — the backpressure signal the admin
// metrics export per server.
func (r *Runner) QueueLen() int {
	p := r.pool.Load()
	if p == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		n += p.QueueLen(i)
	}
	return n
}

// Close is Crash as an io.Closer: in this model a graceful shutdown
// and a crash are indistinguishable to the rest of the system.
func (r *Runner) Close() error { r.Crash(); return nil }

func (r *Runner) run(p *StepPool) {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		case env, ok := <-r.ep.Recv():
			if !ok {
				return
			}
			// A crash scheduled for this point takes effect before the
			// message is admitted; the messages admitted before it still
			// step.
			if ca := r.crashAfter.Load(); ca >= 0 && r.steps.Load() >= ca {
				r.stopOnce.Do(func() { close(r.stop) })
				return
			}
			r.steps.Add(1)
			i := p.shardOf(env.Msg)
			if r.queued.n[i].Load() == 0 && p.tryStep(i, env.From, env.Msg, r.send) {
				continue
			}
			r.queued.n[i].Add(1)
			if !p.enqueue(&p.shards[i], poolJob{from: env.From, msg: env.Msg, sink: &r.queued, tag: i}) {
				return // the pool closed: Crash is under way
			}
		}
	}
}
