package node

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// countingShard counts its steps in a plain int — only correct if steps
// are mutually exclusive with a happens-before edge between consecutive
// ones, which is exactly what the race detector checks — and can hold a
// step open. It does not declare NonBlocking; inlineShard does.
type countingShard struct {
	steps    int
	entered  chan struct{} // when non-nil: signalled at the start of each step
	hold     chan struct{} // when non-nil: each step waits for one token
	lastSeqs map[types.ProcID]int64
	reorder  bool // a sender's seqs were stepped out of order
}

// inlineShard is a countingShard that declares NonBlocking.
type inlineShard struct{ countingShard }

func (s *inlineShard) StepNeverBlocks() bool { return true }

func (s *countingShard) Step(from types.ProcID, m wire.Message) []transport.Outgoing {
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	if s.hold != nil {
		<-s.hold
	}
	s.steps++
	if r, ok := m.(wire.ABDRead); ok {
		if s.lastSeqs == nil {
			s.lastSeqs = make(map[types.ProcID]int64)
		}
		if r.Seq <= s.lastSeqs[from] {
			s.reorder = true
		}
		s.lastSeqs[from] = r.Seq
	}
	return []transport.Outgoing{{To: from, Msg: m}}
}

func oneShard(wire.Message) int { return 0 }

// TryStep runs the step and the sink on the caller's goroutine, before
// it returns — the caller needs no synchronization to see the output.
func TestTryStepRunsOnCallerGoroutine(t *testing.T) {
	sh := &inlineShard{}
	p := NewStepPool([]Automaton{sh}, oneShard)
	defer p.Close()
	var got []wire.Message
	for i := 1; i <= 10; i++ {
		ok := p.TryStep(types.WriterID(), wire.ABDRead{Seq: int64(i)}, func(out []transport.Outgoing) {
			for _, o := range out {
				got = append(got, o.Msg)
			}
		})
		if !ok {
			t.Fatalf("TryStep %d refused on an idle non-blocking shard", i)
		}
		if len(got) != i {
			t.Fatalf("after TryStep %d the sink has run %d times", i, len(got))
		}
	}
}

// An automaton that does not declare NonBlocking is never stepped on
// the caller's goroutine.
func TestTryStepRefusesAutomataThatMayBlock(t *testing.T) {
	silent := &countingShard{}
	p := NewStepPool([]Automaton{silent}, oneShard)
	defer p.Close()
	if p.TryStep(types.WriterID(), wire.ABDRead{Seq: 1}, func([]transport.Outgoing) {}) {
		t.Error("TryStep stepped a shard whose automaton may block")
	}
	if silent.steps != 0 {
		t.Errorf("refused TryStep still stepped %d times", silent.steps)
	}
}

// TryStep refuses while the worker is stepping the shard, and works
// again once the shard is idle.
func TestTryStepRefusesBusyShard(t *testing.T) {
	sh := &inlineShard{countingShard{entered: make(chan struct{}, 4), hold: make(chan struct{})}}
	p := NewStepPool([]Automaton{sh}, oneShard)
	defer p.Close()
	done := make(chan struct{}, 2)
	sink := func([]transport.Outgoing) { done <- struct{}{} }
	nop := func([]transport.Outgoing) {}

	p.Submit(types.WriterID(), wire.ABDRead{Seq: 1}, sink)
	<-sh.entered // the worker is inside the step, holding the shard
	if p.TryStep(types.WriterID(), wire.ABDRead{Seq: 2}, nop) {
		t.Fatal("TryStep stepped a shard whose worker is mid-step")
	}
	p.Submit(types.WriterID(), wire.ABDRead{Seq: 2}, sink) // queued behind the running one
	sh.hold <- struct{}{}
	<-done
	// Job 1 is finished, job 2 is running: still busy.
	<-sh.entered
	if p.TryStep(types.WriterID(), wire.ABDRead{Seq: 3}, nop) {
		t.Fatal("TryStep stepped a shard whose worker is mid-step")
	}
	sh.hold <- struct{}{}
	<-done

	// Idle now (the worker releases the shard right after the sink).
	sh.entered, sh.hold = nil, nil // safe: no step is running, the next takes the shard lock
	deadline := time.Now().Add(5 * time.Second)
	for !p.TryStep(types.WriterID(), wire.ABDRead{Seq: 3}, nop) {
		if time.Now().After(deadline) {
			t.Fatal("TryStep still refused on a drained shard")
		}
		time.Sleep(50 * time.Microsecond)
	}
	if sh.reorder {
		t.Error("steps ran out of submission order")
	}
}

// Inline and pooled steps of one shard are mutually exclusive, and a
// sender that only steps inline while it has nothing queued (tcpnet's
// rule) sees its messages stepped in the order it issued them, whichever
// path each one took. Run under -race: the shard's counters are plain.
func TestTryStepAndSubmitShareTheShard(t *testing.T) {
	sh := &inlineShard{}
	p := NewStepPool([]Automaton{sh}, oneShard)
	const senders, each = 4, 2000
	var wg sync.WaitGroup
	var inline, pooled [senders]int
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			from := types.ReaderID(s)
			done := make(chan struct{}, each)
			sink := func([]transport.Outgoing) { done <- struct{}{} }
			submitted := 0
			for i := 1; i <= each; i++ {
				m := wire.ABDRead{Seq: int64(i)}
				// Every fifth message is queued without asking, so the
				// boundary is crossed whatever the scheduler does.
				if i%5 != 0 && submitted == 0 && p.TryStep(from, m, func([]transport.Outgoing) {}) {
					inline[s]++
					continue
				}
				if !p.Submit(from, m, sink) {
					t.Error("pool closed under load")
					return
				}
				pooled[s]++
				submitted++
				if i%7 == 0 { // let the queue drain now and then so TryStep gets its turn
					for ; submitted > 0; submitted-- {
						<-done
					}
				}
			}
			for ; submitted > 0; submitted-- {
				<-done
			}
		}(s)
	}
	wg.Wait()
	p.Close()
	if sh.steps != senders*each {
		t.Errorf("shard stepped %d times, want %d", sh.steps, senders*each)
	}
	if sh.reorder {
		t.Error("a sender's messages were stepped out of order across the inline/pooled boundary")
	}
	var in, po int
	for s := range inline {
		in += inline[s]
		po += pooled[s]
	}
	if in == 0 || po == 0 {
		t.Errorf("schedule did not cross the boundary: %d inline, %d pooled", in, po)
	}
}

// After Close nothing steps, on either path.
func TestTryStepAfterClose(t *testing.T) {
	sh := &inlineShard{}
	p := NewStepPool([]Automaton{sh}, oneShard)
	p.Close()
	if p.TryStep(types.WriterID(), wire.ABDRead{Seq: 1}, func([]transport.Outgoing) {}) {
		t.Error("TryStep stepped a closed pool")
	}
	if p.Submit(types.WriterID(), wire.ABDRead{Seq: 1}, nil) {
		t.Error("Submit accepted a job on a closed pool")
	}
	if sh.steps != 0 {
		t.Errorf("closed pool stepped %d times", sh.steps)
	}
}

// tagSink records which tags completed: SubmitTo hands the step's
// output to a long-lived sink without a closure per message.
type tagSink struct {
	mu   sync.Mutex
	tags []int
	done chan struct{}
}

func (s *tagSink) StepDone(tag int, out []transport.Outgoing) {
	s.mu.Lock()
	s.tags = append(s.tags, tag)
	s.mu.Unlock()
	s.done <- struct{}{}
}

func TestSubmitToPassesTag(t *testing.T) {
	p := NewStepPool([]Automaton{&countingShard{}}, oneShard)
	defer p.Close()
	sink := &tagSink{done: make(chan struct{}, 3)}
	for tag := 5; tag < 8; tag++ {
		if !p.SubmitTo(types.WriterID(), wire.ABDRead{Seq: int64(tag)}, sink, tag) {
			t.Fatal("SubmitTo refused")
		}
	}
	for i := 0; i < 3; i++ {
		<-sink.done
	}
	for i, tag := range sink.tags {
		if tag != 5+i {
			t.Errorf("completion %d carried tag %d, want %d", i, tag, 5+i)
		}
	}
}

// runSink is a sink the way tcpnet's pooled frame is one: it counts the
// messages whose run has not ended, releases them once per run, and
// signals — from inside the last StepDone — that the Run may be reused.
type runSink struct {
	run       Run
	filled    []atomic.Int32 // per message: how often StepDone named it
	remaining atomic.Int32
	done      chan struct{}
}

func (s *runSink) reset(msgs []wire.Message) {
	s.run.Msgs = msgs
	s.filled = make([]atomic.Int32, len(msgs))
	s.remaining.Store(int32(len(msgs)))
}

func (s *runSink) StepDone(i int, _ []transport.Outgoing) {
	s.filled[i].Add(1)
	if n := s.run.Ended(i); n > 0 && s.remaining.Add(int32(-n)) == 0 {
		s.done <- struct{}{}
	}
}

// seqRun is n ABDReads with ascending Seq from base; bySeq spreads them
// round-robin over the shards.
func seqRun(base, n int) []wire.Message {
	msgs := make([]wire.Message, n)
	for i := range msgs {
		msgs[i] = wire.ABDRead{Seq: int64(base + i)}
	}
	return msgs
}

func bySeq(shards int) func(wire.Message) int {
	return func(m wire.Message) int { return int(m.(wire.ABDRead).Seq) % shards }
}

// A run that spans every shard is stepped in its own order on each of
// them, run after run, and every message is handed to the sink once.
// The sink reuses its Run the moment the last StepDone has been called,
// as tcpnet's pooled frame does: a worker that still looked at the run
// after the StepDone that ended its share races with the next
// submission's split. Run under -race.
func TestSubmitRunKeepsShardOrderAndLetsGoOfTheRun(t *testing.T) {
	const shards, runs, width = 4, 300, 32
	autos := make([]Automaton, shards)
	for i := range autos {
		autos[i] = &countingShard{}
	}
	p := NewStepPool(autos, bySeq(shards))
	sink := &runSink{done: make(chan struct{}, 1)}
	for r := 0; r < runs; r++ {
		sink.reset(seqRun(1+r*width, width))
		p.SubmitRun(types.WriterID(), &sink.run, sink)
		<-sink.done
		for i := range sink.filled {
			if n := sink.filled[i].Load(); n != 1 {
				t.Fatalf("run %d: message %d was handed to the sink %d times", r, i, n)
			}
		}
	}
	p.Close()
	for i, a := range autos {
		sh := a.(*countingShard)
		if sh.steps != runs*width/shards {
			t.Errorf("shard %d stepped %d messages, want %d", i, sh.steps, runs*width/shards)
		}
		if sh.reorder {
			t.Errorf("shard %d stepped its messages out of run order", i)
		}
	}
}

// A frame's messages become one job per shard they touch, however many
// there are.
func TestSubmitRunQueuesOneJobPerShard(t *testing.T) {
	const shards = 4
	autos := make([]Automaton, shards)
	held := make([]*countingShard, shards)
	for i := range autos {
		// entered never blocks a step: one parked step and eight queued.
		held[i] = &countingShard{entered: make(chan struct{}, 9), hold: make(chan struct{})}
		autos[i] = held[i]
	}
	p := NewStepPool(autos, bySeq(shards))
	defer p.Close()
	// Park every worker inside a step, so what is submitted next stays
	// queued.
	parked := &runSink{done: make(chan struct{}, 1)}
	parked.reset(seqRun(0, shards))
	p.SubmitRun(types.WriterID(), &parked.run, parked)
	for _, sh := range held {
		<-sh.entered
	}
	sink := &runSink{done: make(chan struct{}, 1)}
	sink.reset(seqRun(shards, 30)) // shards 0 and 1 get eight messages, 2 and 3 seven
	p.SubmitRun(types.WriterID(), &sink.run, sink)
	for i := 0; i < shards; i++ {
		if n := p.QueueLen(i); n != 1 {
			t.Errorf("shard %d has %d jobs queued for one run, want 1", i, n)
		}
	}
	for _, sh := range held {
		close(sh.hold)
	}
	<-parked.done
	<-sink.done
}

// Close racing run submissions: a submitter never hangs on a closing
// pool, no message is handed to the sink twice, and a run submitted to a
// closed pool completes empty on the spot — every message once.
func TestSubmitRunAgainstClose(t *testing.T) {
	const shards, submitters = 2, 4
	autos := make([]Automaton, shards)
	for i := range autos {
		autos[i] = &countingShard{}
	}
	p := NewStepPool(autos, bySeq(shards))
	var wg sync.WaitGroup
	var sinks [submitters][]*runSink
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// More runs than the queues hold, none waited for: submitters
			// are blocked on full queues when the pool closes.
			for r := 0; r < 2*stepQueueDepth; r++ {
				sink := &runSink{done: make(chan struct{}, 1)}
				sink.reset(seqRun(1+8*r, 8))
				sinks[s] = append(sinks[s], sink)
				p.SubmitRun(types.ReaderID(s), &sink.run, sink)
			}
		}(s)
	}
	p.Close()
	wg.Wait() // hangs if a submitter is left blocked on a dead queue
	for s := range sinks {
		for r, sink := range sinks[s] {
			for i := range sink.filled {
				if n := sink.filled[i].Load(); n > 1 {
					t.Fatalf("submitter %d run %d: message %d handed to the sink %d times", s, r, i, n)
				}
			}
		}
	}
	after := &runSink{done: make(chan struct{}, 1)}
	after.reset(seqRun(1, 8))
	p.SubmitRun(types.WriterID(), &after.run, after)
	select {
	case <-after.done:
	default:
		t.Fatal("a run refused by a closed pool was not completed by SubmitRun")
	}
	for i := range after.filled {
		if n := after.filled[i].Load(); n != 1 {
			t.Errorf("closed pool: message %d handed to the sink %d times, want once", i, n)
		}
	}
	for i, a := range autos {
		if sh := a.(*countingShard); sh.reorder {
			t.Errorf("shard %d stepped a submitter's messages out of order", i)
		}
	}
}
