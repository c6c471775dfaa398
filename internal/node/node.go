// Package node runs server automata: it pumps messages from an
// endpoint's inbox into a pure step function and sends the produced
// replies. Separating the (deterministic, synchronous) automaton from
// its (concurrent) driver keeps protocol logic unit-testable and makes
// crash injection trivial — crashing a server is stopping its pump.
package node

import (
	"sync"
	"sync/atomic"

	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Automaton is a deterministic message-driven state machine: one step
// consumes a message and yields the messages to send. Implementations
// are not required to be concurrency-safe; the Runner serializes steps.
type Automaton interface {
	Step(from types.ProcID, m wire.Message) []transport.Outgoing
}

// AppendStepper is the allocation-free variant of Automaton's step: the
// caller passes a reusable output buffer and the automaton appends its
// replies instead of allocating a fresh slice per message.
//
// Buffer ownership (the step-sink contract, DESIGN.md §5): the caller
// owns the backing array and may reuse it as soon as it has finished
// with the returned slice; the callee must not retain the slice (or any
// subslice) past the call. The message *values* appended are handed off
// for good — they travel through mailboxes and sockets — so a callee
// must never append a message it plans to mutate later.
type AppendStepper interface {
	StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing
}

// NonBlocking is an optional Automaton capability: StepNeverBlocks
// answers true when the step never waits on another step, connection
// or peer — it computes on memory and may wait on local storage. A
// driver may then run the step on a goroutine with other duties (tcpnet
// steps such a shard on a connection's read goroutine, StepPool.TryStep),
// which must never wait for work only it could unblock. Any other
// automaton, and any wrapper that does not forward the answer, is only
// ever stepped on a worker that has nothing else to do.
type NonBlocking interface {
	StepNeverBlocks() bool
}

// StepInto drives one step through the append-based API when a
// implements it, falling back to Step and copying its result. Every
// driver (Runner, ShardedRunner, StepPool, tcpnet's serve loops) steps
// through this helper, so an automaton only has to implement
// AppendStepper to put its whole deployment on the zero-allocation
// path.
func StepInto(a Automaton, from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	if as, ok := a.(AppendStepper); ok {
		return as.StepAppend(from, m, out)
	}
	return append(out, a.Step(from, m)...)
}

// Process is the lifecycle surface every runner flavor shares. It lets
// a deployment hold heterogeneous runners — a ShardedRunner for a keyed
// server, a plain Runner after a chaos schedule swapped in a Byzantine
// behavior — behind one crash/stop interface.
type Process interface {
	Start()
	Crash()
	Stop()
	CrashAfterSteps(n int)
	Steps() int64
}

var (
	_ Process = (*Runner)(nil)
	_ Process = (*ShardedRunner)(nil)
)

// Runner drives one automaton from one endpoint.
type Runner struct {
	ep transport.Endpoint
	a  Automaton

	steps      atomic.Int64
	crashAfter atomic.Int64 // crash once steps reaches this value; <0 means never

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewRunner creates a runner for the automaton a attached to ep. The
// runner does not start pumping until Start is called.
func NewRunner(ep transport.Endpoint, a Automaton) *Runner {
	r := &Runner{
		ep:   ep,
		a:    a,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	r.crashAfter.Store(-1)
	return r
}

// Start launches the pump goroutine. Calling Start more than once, or
// after Crash, is a no-op.
func (r *Runner) Start() {
	r.startOnce.Do(func() { go r.run() })
}

// Crash stops the process immediately, as a crash failure: messages
// already queued but not yet stepped are never processed, matching the
// model where a crashed process takes no further steps. Crash is
// idempotent and safe to call concurrently; it waits for the pump to
// exit. Crashing a runner that was never started marks it permanently
// stopped (an initially crashed server).
func (r *Runner) Crash() {
	r.stopOnce.Do(func() { close(r.stop) })
	// If Start never ran, consume the once so the pump can no longer
	// launch, and close done ourselves; if Start ran first, this is a
	// no-op and the pump closes done on exit.
	r.startOnce.Do(func() { close(r.done) })
	<-r.done
}

// CrashAfterSteps schedules a crash after n further automaton steps.
// The process handles exactly n more messages and then stops — used to
// script failures "in the middle" of an operation.
func (r *Runner) CrashAfterSteps(n int) {
	r.crashAfter.Store(r.steps.Load() + int64(n))
}

// Steps reports the number of messages processed so far.
func (r *Runner) Steps() int64 { return r.steps.Load() }

// Stop is an alias of Crash: in this model a graceful shutdown and a
// crash are indistinguishable to the rest of the system.
func (r *Runner) Stop() { r.Crash() }

func (r *Runner) run() {
	defer close(r.done)
	// scratch is the pump's reusable step-output buffer: one backing
	// array for the runner's lifetime instead of one slice per message
	// (see the AppendStepper ownership contract).
	var scratch []transport.Outgoing
	for {
		select {
		case <-r.stop:
			return
		case env, ok := <-r.ep.Recv():
			if !ok {
				return
			}
			// A crash scheduled for this step point takes effect before
			// the message is processed.
			if ca := r.crashAfter.Load(); ca >= 0 && r.steps.Load() >= ca {
				r.stopOnce.Do(func() { close(r.stop) })
				return
			}
			scratch = StepInto(r.a, env.From, env.Msg, scratch[:0])
			r.steps.Add(1)
			// Best effort: the network may be shutting down underneath a
			// still-running server; a correct server has nothing better
			// to do with a send error than keep serving.
			_ = transport.SendAll(r.ep, scratch)
		}
	}
}
