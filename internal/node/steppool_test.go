package node

import (
	"sync"
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

func (s *inlineShard) StepNeverBlocks() {}

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
