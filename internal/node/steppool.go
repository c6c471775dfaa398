package node

import (
	"slices"
	"sync"

	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// stepQueueDepth bounds each shard's job queue. A full queue blocks
// Submit — backpressure on whoever feeds the pool (e.g. a TCP read
// loop, which then stops reading its socket) instead of unbounded
// memory growth under overload. A job is a run, so this bounds queued
// runs; the messages in them are bounded by whoever builds the runs.
const stepQueueDepth = 256

// StepSink receives the output of a step submitted with SubmitTo. tag
// is the value the submitter passed along, so one long-lived sink (a
// connection's reply frame, say) can serve many submissions without a
// closure per message.
type StepSink interface {
	StepDone(tag int, out []transport.Outgoing)
}

// sinkFunc adapts Submit's plain callback (nil: discard) to StepSink.
type sinkFunc func([]transport.Outgoing)

func (f sinkFunc) StepDone(_ int, out []transport.Outgoing) {
	if f != nil {
		f(out)
	}
}

// doFunc is the sink of a Do job, which steps nothing: the worker calls
// it with the shard's automaton instead.
type doFunc func(Automaton)

func (doFunc) StepDone(int, []transport.Outgoing) {}

// Run is a sequence of messages submitted together (a request frame's):
// SubmitRun queues one job per shard they touch, and the shard's worker
// steps its share, a run, in order under one hold of the shard. The
// submitter sets Msgs; the rest is SubmitRun's, kept so that a reused
// Run allocates nothing.
type Run struct {
	Msgs []wire.Message

	// next[i] > 0 is the index of the message after Msgs[i] on its shard;
	// next[i] < 0 says Msgs[i] ends a run of -next[i] messages.
	next    []int
	runs    []struct{ first, last, n int } // per shard
	touched []int                          // the shards that have a run
}

// Ended reports the length of the run Msgs[i] is the last message of, 0
// if it is not the last: a sink counting outstanding messages releases
// them once per run with it, from StepDone(i, …).
func (r *Run) Ended(i int) int { return max(0, -r.next[i]) }

// poolJob is one queued run: its first message by value — so a run of
// one (Submit, SubmitTo) is nothing else and its submitter may reuse the
// message's storage at once — and the others through rest. tag is what
// StepDone gets for msg: with a rest, msg's index in rest.Msgs.
type poolJob struct {
	from types.ProcID
	msg  wire.Message
	sink StepSink
	tag  int
	rest *Run
}

// poolShard is one shard automaton and everything that serializes it.
type poolShard struct {
	auto   Automaton
	inline bool // auto answers NonBlocking true: TryStep may run it on the caller's goroutine
	queue  chan poolJob

	// mu is held across every step and every Do, by the worker and by
	// TryStep callers alike: steps on one shard are mutually exclusive
	// and consecutive steps are ordered by the unlock/lock pair, so the
	// automaton (and anything wrapped around it) needs no locking.
	mu      sync.Mutex
	scratch []transport.Outgoing // step output buffer, guarded by mu
}

// StepPool drives shard automata from explicit submissions — every live
// server steps on one, under a Runner's pump on simnet and under tcpnet's
// connection read loops: a caller submits steps and collects each
// step's output through a per-submission sink. One worker goroutine per shard steps what is
// queued; a caller may also step an idle shard itself (TryStep). Either
// way a shard is stepped by one goroutine at a time, so shard automata
// (e.g. keyed.ShardedServer's unlocked per-shard maps) need no locking,
// and independent shards step in parallel.
//
// The sink runs on the stepping goroutine with the shard held and
// therefore must not block; a blocking sink stalls every key on that
// shard. The slice handed to the sink is the shard's reusable scratch
// buffer (the step-sink contract, DESIGN.md §5): it is valid only for
// the duration of the callback, so a sink that needs the replies later
// must copy the message values out (the values themselves are safe to
// retain — only the slice is reused).
type StepPool struct {
	shards []poolShard
	route  func(wire.Message) int

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewStepPool creates a pool stepping the shard automata and starts one
// worker per shard. route maps a message to a shard index (out-of-range
// results are clamped into [0, len(shards))); it must be pure so every
// message for one key lands on one shard.
func NewStepPool(shards []Automaton, route func(wire.Message) int) *StepPool {
	if len(shards) == 0 {
		panic("node: step pool needs at least one shard")
	}
	p := &StepPool{
		shards: make([]poolShard, len(shards)),
		route:  route,
		stop:   make(chan struct{}),
	}
	for i, a := range shards {
		sh := &p.shards[i]
		sh.auto = a
		nb, ok := a.(NonBlocking)
		sh.inline = ok && nb.StepNeverBlocks()
		sh.queue = make(chan poolJob, stepQueueDepth)
	}
	p.wg.Add(len(shards))
	for i := range p.shards {
		go p.work(&p.shards[i])
	}
	return p
}

// shardOf returns the index of the shard m routes to.
func (p *StepPool) shardOf(m wire.Message) int {
	i := p.route(m)
	if i < 0 || i >= len(p.shards) {
		i = 0
	}
	return i
}

// Submit queues one step on the message's shard and returns true, or
// returns false if the pool is closed (the sink will never be called).
// Submit blocks while the shard's queue is full. A true return means
// the job was queued, not that it will run: Close drops queued jobs,
// so a caller waiting on a sink must also watch its own shutdown
// signal (as tcpnet's write pump does).
func (p *StepPool) Submit(from types.ProcID, m wire.Message, sink func([]transport.Outgoing)) bool {
	return p.SubmitTo(from, m, sinkFunc(sink), 0)
}

// SubmitTo is Submit with a StepSink (not nil): the step's output goes
// to sink.StepDone(tag, out). Storing a pointer-shaped sink in the job
// allocates nothing, which a fresh closure per message would.
func (p *StepPool) SubmitTo(from types.ProcID, m wire.Message, sink StepSink, tag int) bool {
	return p.enqueue(&p.shards[p.shardOf(m)], poolJob{from: from, msg: m, sink: sink, tag: tag})
}

// SubmitRun splits r.Msgs by shard and queues one job per shard touched,
// blocking like Submit: the worker steps the shard's messages in r's
// order and hands sink.StepDone(i, out) the output of r.Msgs[i]. A run
// the pool refuses, being closed, completes here instead — StepDone(i,
// nil) for each message — so on return every message is queued or done.
// The sink may recycle r inside the StepDone that ends the last run;
// nobody here touches r after that call.
func (p *StepPool) SubmitRun(from types.ProcID, r *Run, sink StepSink) {
	r.next = slices.Grow(r.next[:0], len(r.Msgs))[:len(r.Msgs)]
	r.runs = slices.Grow(r.runs[:0], len(p.shards))[:len(p.shards)]
	clear(r.runs)
	r.touched = r.touched[:0]
	for i, m := range r.Msgs {
		s := p.shardOf(m)
		run := &r.runs[s]
		if run.n == 0 {
			run.first = i
			r.touched = append(r.touched, s)
		} else {
			r.next[run.last] = i
		}
		run.last, run.n = i, run.n+1
		r.next[i] = -run.n
	}
	for _, s := range r.touched {
		first := r.runs[s].first
		job := poolJob{from: from, msg: r.Msgs[first], sink: sink, tag: first, rest: r}
		if !p.enqueue(&p.shards[s], job) {
			job.each(func(i int, _ wire.Message) { sink.StepDone(i, nil) })
		}
	}
}

// each calls f on the run's messages in order. Its last call may recycle
// the run (it ends in the sink's StepDone), so where to go next is read
// before each call.
func (job poolJob) each(f func(i int, m wire.Message)) {
	for m, i := job.msg, job.tag; ; {
		next := -1
		if job.rest != nil {
			next = job.rest.next[i]
		}
		f(i, m)
		if next < 0 {
			return
		}
		m, i = job.rest.Msgs[next], next
	}
}

func (p *StepPool) enqueue(sh *poolShard, job poolJob) bool {
	select {
	case <-p.stop:
		return false // closed pools refuse, even with room in the queue
	default:
	}
	select {
	case <-p.stop:
		return false
	case sh.queue <- job:
		return true
	}
}

// TryStep steps m on the caller's goroutine, hands the output to sink,
// and returns true — if and only if the shard's automaton answered that
// its step never waits on another (NonBlocking, read once by
// NewStepPool) and no other goroutine is stepping the shard right now.
// Otherwise it returns false having done nothing, and the caller
// submits as usual. The sink contract is Submit's. A step
// taken here may run before jobs already queued on the shard, so a
// caller that needs its own messages stepped in order must have none of
// them queued (tcpnet checks its connection's pipeline is empty, a
// Runner its shard's backlog);
// messages of different callers have no order to keep.
func (p *StepPool) TryStep(from types.ProcID, m wire.Message, sink func([]transport.Outgoing)) bool {
	return p.tryStep(p.shardOf(m), from, m, sink)
}

// tryStep is TryStep on shard i, which m routes to.
func (p *StepPool) tryStep(i int, from types.ProcID, m wire.Message, sink func([]transport.Outgoing)) bool {
	sh := &p.shards[i]
	if !sh.inline || !sh.mu.TryLock() {
		return false
	}
	defer sh.mu.Unlock()
	select {
	case <-p.stop:
		return false // closed: nothing steps any more
	default:
	}
	sh.scratch = StepInto(sh.auto, from, m, sh.scratch[:0])
	sink(sh.scratch)
	return true
}

// Do runs fn on shard i's worker goroutine with exclusive ownership of
// that shard's automaton — the race-free way to inspect (or mutate)
// live shard state without stopping the pool; the admin API's
// /debug/stamps walks shards this way. Do blocks until fn has run and
// returns true, or returns false without running fn if the pool is
// closed (or closes while the job is queued). fn must not block on the
// pool itself: its shard steps nothing until fn returns.
func (p *StepPool) Do(i int, fn func(Automaton)) bool {
	if i < 0 || i >= len(p.shards) {
		return false
	}
	done := make(chan struct{})
	job := poolJob{sink: doFunc(func(a Automaton) {
		defer close(done)
		fn(a)
	})}
	if !p.enqueue(&p.shards[i], job) {
		return false
	}
	select {
	case <-done:
		return true
	case <-p.stop:
		// Close may have dropped the queued job; it may also already be
		// running. Either way the worker exits without stepping further,
		// so waiting on done could hang — report failure.
		return false
	}
}

// NumShards reports the pool's shard count.
func (p *StepPool) NumShards() int { return len(p.shards) }

// QueueLen reports the number of jobs — runs, not messages — queued on
// shard i: the live backpressure signal the admin metrics export per
// shard.
func (p *StepPool) QueueLen(i int) int {
	if i < 0 || i >= len(p.shards) {
		return 0
	}
	return len(p.shards[i].queue)
}

// Close stops every worker and waits for them — and for any TryStep in
// progress — to finish; nothing steps after Close returns. Jobs queued
// but not yet stepped are dropped — to a client this is
// indistinguishable from the server crashing with those messages in
// flight, which the protocols tolerate. Close is idempotent.
func (p *StepPool) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	for i := range p.shards {
		// A TryStep that passed its stop check holds mu until it is done.
		p.shards[i].mu.Lock()
		p.shards[i].mu.Unlock()
	}
}

// work is one shard's worker: it steps whatever is queued, holding the
// shard for each run.
func (p *StepPool) work(sh *poolShard) {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case job := <-sh.queue:
			sh.mu.Lock()
			if do, isDo := job.sink.(doFunc); isDo {
				do(sh.auto)
			} else {
				job.each(func(i int, m wire.Message) {
					sh.scratch = StepInto(sh.auto, job.from, m, sh.scratch[:0])
					job.sink.StepDone(i, sh.scratch)
				})
			}
			sh.mu.Unlock()
		}
	}
}
