package node

import (
	"sync"

	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// stepQueueDepth bounds each shard's job queue. A full queue blocks
// Submit — backpressure on whoever feeds the pool (e.g. a TCP read
// loop, which then stops reading its socket) instead of unbounded
// memory growth under overload.
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

// poolJob is one queued automaton step plus the sink that receives its
// output — or, when do is set, an arbitrary closure run with exclusive
// ownership of the shard automaton (see Do).
type poolJob struct {
	from types.ProcID
	msg  wire.Message
	sink StepSink
	tag  int
	do   func(Automaton)
}

// poolShard is one shard automaton and everything that serializes it.
type poolShard struct {
	auto   Automaton
	inline bool // auto is NonBlocking: TryStep may run it on the caller's goroutine
	queue  chan poolJob

	// mu is held across every step and every Do, by the worker and by
	// TryStep callers alike: steps on one shard are mutually exclusive
	// and consecutive steps are ordered by the unlock/lock pair, so the
	// automaton (and anything wrapped around it) needs no locking.
	mu      sync.Mutex
	scratch []transport.Outgoing // step output buffer, guarded by mu
}

// StepPool drives shard automata from explicit submissions, the
// synchronous sibling of ShardedRunner: where the runner pumps an
// endpoint and sends the outputs back through it, the pool lets a
// caller submit individual steps and collect each step's output through
// a per-submission sink. One worker goroutine per shard steps what is
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
		_, sh.inline = a.(NonBlocking)
		sh.queue = make(chan poolJob, stepQueueDepth)
	}
	p.wg.Add(len(shards))
	for i := range p.shards {
		go p.work(&p.shards[i])
	}
	return p
}

// shardFor returns the shard m routes to.
func (p *StepPool) shardFor(m wire.Message) *poolShard {
	i := p.route(m)
	if i < 0 || i >= len(p.shards) {
		i = 0
	}
	return &p.shards[i]
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
	return p.enqueue(p.shardFor(m), poolJob{from: from, msg: m, sink: sink, tag: tag})
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
// and returns true — if and only if the shard's automaton declared it
// cannot block (NonBlocking) and no other goroutine is stepping the
// shard right now. Otherwise it returns false having done nothing, and
// the caller submits as usual. The sink contract is Submit's. A step
// taken here may run before jobs already queued on the shard, so a
// caller that needs its own messages stepped in order must have none of
// them queued (tcpnet checks its connection's pipeline is empty);
// messages of different callers have no order to keep.
func (p *StepPool) TryStep(from types.ProcID, m wire.Message, sink func([]transport.Outgoing)) bool {
	sh := p.shardFor(m)
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
	job := poolJob{do: func(a Automaton) {
		defer close(done)
		fn(a)
	}}
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

// QueueLen reports the number of jobs queued on shard i — the live
// backpressure signal the admin metrics export per shard.
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
// shard for each step.
func (p *StepPool) work(sh *poolShard) {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case job := <-sh.queue:
			sh.mu.Lock()
			if job.do != nil {
				job.do(sh.auto)
			} else {
				sh.scratch = StepInto(sh.auto, job.from, job.msg, sh.scratch[:0])
				job.sink.StepDone(job.tag, sh.scratch)
			}
			sh.mu.Unlock()
		}
	}
}
