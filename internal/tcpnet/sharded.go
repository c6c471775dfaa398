package tcpnet

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"luckystore/internal/metrics"
	"luckystore/internal/node"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// framePipelineDepth bounds how many request frames per connection may
// be in flight between the read loop and the write pump. A full
// pipeline blocks the read loop — backpressure through TCP flow control
// onto a client that stopped reading its replies.
const framePipelineDepth = 64

// ListenSharded starts a server whose automaton is split into shards
// stepped in parallel under a node.StepPool. Every connection's read
// loop routes each inbound message to its shard and takes one of two
// paths per request frame (servePipelined picks, from what it can
// observe): it steps the message itself and writes the reply itself —
// run to completion, no hand-off — or it submits the frame's messages
// to the shard workers, one job per shard the frame touches, and lets
// the connection's write pump send the replies. No lock is shared
// between shards — messages for different shards (different keys,
// under keyed.ShardedServer's routing) are stepped concurrently, across
// and within connections.
//
// The reply contract is the same on both paths: all replies to one
// request frame coalesce into batch frames (one frame per round trip
// for a batched multi-key request), reply frames for one connection go
// out in request order, and so per-(peer,key) FIFO order is preserved
// end to end.
//
// The shards and route function typically come from a
// keyed.ShardedServer's Shards and Route methods.
func ListenSharded(id types.ProcID, addr string, shards []node.Automaton, route func(wire.Message) int, opts ...ServerOption) (*Server, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("tcpnet: sharded server needs at least one shard")
	}
	if !id.IsServer() {
		return nil, fmt.Errorf("tcpnet: %q is not a server id", id)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet listen %s: %w", addr, err)
	}
	s := &Server{
		id: id, ln: ln,
		conns:  make(map[net.Conn]struct{}),
		closed: make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	s.pool = node.NewStepPool(shards, route)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// replySlot holds one inner message's replies to the peer. A step of
// this protocol family produces at most one reply to the requester, so
// the slot stores that message inline; rest exists only for exotic
// automata and stays nil on the hot path. cls is the key class of the
// service-latency observation, frame read to slot filled (cls < 0: none).
type replySlot struct {
	msg  wire.Message
	rest []wire.Message
	cls  int
}

// pendingFrame collects the replies of one request frame on the pooled
// path: one slot per inner message, filled by shard workers as steps
// complete, in whatever order the shards finish. The frame's messages
// are one node.Run — a job per shard, not per message — and remaining
// drops once per shard's run. The fill that brings it to zero sends one
// token on ready, and the write pump reads the slots in request order —
// intra-frame reply order is deterministic even though stepping was
// parallel.
//
// Frames are pooled and genuinely reusable: the slot array, the run's
// routing arrays, the ready channel (a token per use, never closed) and
// the frame itself — which is also the node.StepSink of its own steps,
// so no closure is made per message — all survive the round trip through
// framePool. In the steady state a request frame allocates nothing here.
type pendingFrame struct {
	slots     []replySlot
	run       node.Run
	remaining atomic.Int32  // messages whose run has not ended
	ready     chan struct{} // capacity 1: holds the token of the use in progress
	peer      types.ProcID
	met       *ServerMetrics
	t0        time.Time // when the frame was read, if met is set
}

var framePool = sync.Pool{New: func() any {
	return &pendingFrame{ready: make(chan struct{}, 1)}
}}

func newPendingFrame(msgs []wire.Message, peer types.ProcID, met *ServerMetrics, t0 time.Time) *pendingFrame {
	pf := framePool.Get().(*pendingFrame)
	pf.slots = slices.Grow(pf.slots[:0], len(msgs))[:len(msgs)] // zero: release cleared them
	pf.run.Msgs, pf.peer, pf.met, pf.t0 = msgs, peer, met, t0
	pf.remaining.Store(int32(len(msgs)))
	return pf
}

// release clears the slots' message references (so pooling does not
// pin replies for GC) and returns the frame to the pool. Only called
// once no fill can still happen and the ready token has been consumed
// (or was never sent): after the pump received it, or for a frame none
// of whose messages was submitted.
func (pf *pendingFrame) release() {
	clear(pf.slots)
	pf.run.Msgs, pf.peer, pf.met = nil, "", nil
	framePool.Put(pf)
}

// StepDone implements node.StepSink: slot i's step has run. It stores
// the slot's replies — selected from the stepper's scratch output, which
// is only valid during this call — and sends the ready token when it
// ended the last outstanding run. Each slot is filled exactly once, by
// the goroutine that stepped its message; a run's fills precede its one
// atomic decrement, which orders them before the token, so the pump
// reads the slots race-free — and may recycle the frame at once.
func (pf *pendingFrame) StepDone(i int, out []transport.Outgoing) {
	slot := &pf.slots[i]
	for _, o := range out {
		if o.To != pf.peer {
			continue // a data-centric server replies only to the requester
		}
		if slot.msg == nil {
			slot.msg = o.Msg
		} else {
			slot.rest = append(slot.rest, o.Msg)
		}
	}
	if slot.cls >= 0 {
		pf.met.Service[slot.cls].ObserveSince(pf.t0)
	}
	if n := pf.run.Ended(i); n > 0 && pf.remaining.Add(int32(-n)) == 0 {
		pf.ready <- struct{}{}
	}
}

// appendReplies appends all replies in request order to buf. Only valid
// after ready.
func (pf *pendingFrame) appendReplies(buf []wire.Message) []wire.Message {
	for i := range pf.slots {
		if pf.slots[i].msg != nil {
			buf = append(buf, pf.slots[i].msg)
		}
		buf = append(buf, pf.slots[i].rest...)
	}
	return buf
}

// serviceClass is the key class m's service latency is observed under,
// or < 0 when the server is uninstrumented or m is not keyed.
func (s *Server) serviceClass(m wire.Message) int {
	if s.met == nil {
		return -1
	}
	k, isKeyed := m.(wire.Keyed)
	if !isKeyed {
		return -1
	}
	return metrics.KeyClass(k.Key)
}

// servePipelined handles one connection. The read loop (this
// goroutine) decodes request frames and, per frame, takes one of two
// paths.
//
// Inline — run to completion: step the message here and write its reply
// here, zero hand-offs. Taken only when everything the loop can observe
// says queueing would buy nothing and reorder nothing:
//
//   - the frame carries one message (a batch frame wants its shards
//     stepped in parallel);
//   - no earlier frame of this connection is still in the pipeline
//     (inflight == 0): its steps are done, its reply is written and
//     flushed, so the reply written here cannot overtake or interleave
//     with another;
//   - no further bytes are buffered on the socket: a client that
//     pipelines frames gets the write pump's reply batching (one write
//     per burst) instead of one write per reply — tcp_batch, whose
//     fan-out arrives as pipelined runs of frames, loses a fifth of its
//     ops_s without this check (EXPERIMENTS.md);
//   - nobody is stepping the shard and its automaton answers
//     node.NonBlocking true (node.StepPool.TryStep): its step never
//     waits on another step, connection or peer. A storage.Durable shard
//     over a backend that does not fsync qualifies — the reply is
//     written after its commit returns, as on the pooled path, and every
//     frame of the connection waits out that write — but a step that may
//     wait on another step could wait on work this goroutine alone would
//     submit, so it is never run on a read goroutine.
//
// Pooled — otherwise: submit the frame's messages as one run per shard
// they touch (node.StepPool.SubmitRun); the write pump goroutine sends
// each frame's coalesced replies once its steps complete, in request
// order. A batch frame always goes this way: its shards' runs step in
// parallel, and a run is one hand-off however many messages it has.
func (s *Server) servePipelined(conn net.Conn, peer types.ProcID) {
	frames := make(chan *pendingFrame, framePipelineDepth)
	pumpDone := make(chan struct{})
	// inflight counts frames handed to the pump and not yet written and
	// flushed. Only this goroutine raises it, so reading zero here means
	// the pump is idle with an empty write buffer and stays so until this
	// goroutine hands it the next frame.
	var inflight atomic.Int32
	go s.writePump(conn, peer, frames, &inflight, pumpDone)

	// The inline path's reply, collected from the shard's scratch output
	// (valid only during the sink call) into a buffer reused across
	// frames.
	var replies []wire.Message
	collect := func(out []transport.Outgoing) {
		for _, o := range out {
			if o.To == peer {
				replies = append(replies, o.Msg)
			}
		}
	}

	var one [1]wire.Message // a non-batch frame's message, as a slice
	br := bufio.NewReaderSize(conn, connBufSize)
readLoop:
	for {
		env, err := wire.DecodeFrame(br)
		if err != nil {
			break // EOF, malformed frame, or closed
		}
		s.met.frameIn()
		var t0 time.Time // service latency is observed per frame read
		if s.met != nil {
			t0 = time.Now()
		}
		// The connection authenticates the sender: the claimed From is
		// ignored and every step runs under the handshake identity.
		msgs := append(one[:0], env.Msg)
		if b, isBatch := env.Msg.(wire.Batch); isBatch {
			msgs = b.Msgs
		} else if inflight.Load() == 0 && br.Buffered() == 0 {
			cls := s.serviceClass(env.Msg)
			replies = replies[:0]
			if s.pool.TryStep(peer, env.Msg, collect) {
				if cls >= 0 {
					s.met.Service[cls].ObserveSince(t0)
				}
				// conn.Write directly: the pump's buffer is empty, and one
				// reply frame is one syscall either way.
				if err := writeReplies(conn, s.id, peer, replies); err != nil {
					break
				}
				s.met.replies(len(replies))
				clear(replies) // do not pin the reply until the next frame
				continue
			}
		}
		if len(msgs) == 0 {
			continue
		}
		pf := newPendingFrame(msgs, peer, s.met, t0)
		for i, m := range msgs {
			pf.slots[i].cls = s.serviceClass(m)
		}
		inflight.Add(1)
		select {
		case frames <- pf:
		case <-s.closed:
			pf.release() // never reached the pump; don't leak it from the pool
			break readLoop
		}
		// The frame is its own sink: StepDone(i, …) runs on the stepping
		// goroutine and copies the peer-bound replies out of the shard's
		// scratch. A lone message rides in its job by value, so reusing
		// one for the next frame is safe. If the pool closes mid-frame the
		// runs it refused complete empty, so the pump can drain and exit.
		s.pool.SubmitRun(peer, &pf.run, pf)
	}
	close(frames)
	<-pumpDone
}

// writePump is the connection's writer on the pooled path: it takes
// completed frames in request order and writes each frame's replies
// coalesced into batch frames (writeReplies), so concurrent shard
// workers never interleave writes on one socket. Completed frames are
// recycled into the frame pool, and the reply list is gathered into a
// pump-local reusable buffer.
//
// Replies accumulate in a buffered writer with two flush points, both
// chosen so no client ever waits on buffered bytes: before blocking —
// on a frame whose steps are still running, or on an empty pipeline —
// everything written so far is flushed; while completed frames are
// already queued, replies keep accumulating, amortizing one syscall
// over a burst. The one-reply-frame-per-request contract and request-
// order frame sequence are untouched: buffering delays bytes, never
// reorders or merges frames.
//
// inflight drops only after a frame is fully dealt with — written, and
// flushed if nothing is queued behind it — which is what lets the read
// loop write to the socket itself when it reads zero.
func (s *Server) writePump(conn net.Conn, peer types.ProcID, frames <-chan *pendingFrame, inflight *atomic.Int32, done chan<- struct{}) {
	defer close(done)
	bw := bufio.NewWriterSize(conn, connBufSize)
	var replyBuf []wire.Message
	broken := false
	flush := func() {
		if !broken && bw.Flush() != nil {
			broken = true
			_ = conn.Close() // stop the read loop too
		}
	}
	// write deals with one frame: waits for its steps, writes its
	// replies, recycles it.
	write := func(pf *pendingFrame) {
		if broken {
			s.awaitAndRelease(pf) // keep draining so the read loop never blocks
			return
		}
		select {
		case <-pf.ready:
		default:
			// This frame's steps are still running: flush what earlier
			// frames buffered, then wait.
			flush()
			select {
			case <-pf.ready:
			case <-s.closed:
				broken = true
				_ = conn.Close()
				s.awaitAndRelease(pf)
				return
			}
			if broken {
				pf.release()
				return
			}
		}
		replyBuf = pf.appendReplies(replyBuf[:0])
		pf.release()
		if err := writeReplies(bw, s.id, peer, replyBuf); err != nil {
			broken = true
			_ = conn.Close() // stop the read loop too
			return
		}
		s.met.replies(len(replyBuf))
		if len(frames) == 0 {
			flush() // nothing completed is queued: the pipe would go idle
		}
	}
	for pf := range frames {
		write(pf)
		inflight.Add(-1)
	}
	flush()
}

// awaitAndRelease returns a dropped frame to the pool if its last fill
// has happened (the ready token is there to take) — a frame still being
// filled by shard workers must not be recycled under them.
func (s *Server) awaitAndRelease(pf *pendingFrame) {
	select {
	case <-pf.ready:
		pf.release()
	default:
		// Workers are still filling slots (or the pool dropped the jobs
		// on Close and no token will ever come): leave the frame to the
		// GC rather than risk recycling it mid-fill.
	}
}
