package transport

import (
	"errors"
	"sync"
	"sync/atomic"

	"luckystore/internal/metrics"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Coalescer wraps an endpoint with send-side group commit by a
// combining flush: there is no resident flusher goroutine. A sender
// that finds the coalescer idle takes the flusher role on its own
// goroutine — it writes its message through and, before returning,
// drains whatever other senders queued behind it, one wire.Batch frame
// per destination run. Senders that find a flush in progress only
// enqueue and return. So a lone message pays no goroutine hand-off at
// all, and batches form exactly when concurrent multi-key traffic
// creates them: while one sender is inside the transport's write, the
// others pile up behind it.
//
// A sender only ever carries traffic for destinations that are up — the
// last run handed to the inner endpoint for them succeeded, so on TCP
// there is an established connection and the send is a buffer write.
// Queued traffic for any other destination (never sent to, or failed
// last time: a first dial, a refused or blackholed one) is flushed by a
// transient goroutine that takes the flusher role instead and exits
// when the queues are empty, so a dial never runs on a sender's
// goroutine and Send to a down server returns at once. The price that
// remains is that Send may block for one inner Send to an up
// destination (a TCP write), plus the runs of its peers' messages the
// flushing sender carries before it returns — bounded in a closed loop
// by the number of concurrent senders.
//
// A caller about to send many messages from one goroutine — a batch
// driver emitting one protocol round for N keys (internal/kv) — brackets
// them with Cork/Uncork: while a cork is held Send only enqueues, and
// Uncork flushes what accumulated through the same combining flush, one
// frame per destination instead of N (DESIGN.md §3 has the contract).
//
// Only Keyed messages are coalesced (wire.Batch carries nothing else);
// other messages flush in their own frames, in send order relative to
// the keyed traffic for the same destination. Per-destination FIFO
// order is preserved end to end.
//
// Queues are double-buffered per destination (DESIGN.md §5): each
// destination keeps two message slices that ping-pong between the
// senders and the flusher, and the round-order list ping-pongs
// the same way, so a steady-state flush cycle performs no map or slice
// allocation. The destination set is the (small, stable) server set, so
// entries are never evicted.
type Coalescer struct {
	inner Endpoint
	batch BatchSender // inner's direct-encode fast path, nil if unsupported

	mu         sync.Mutex
	pending    map[types.ProcID]*destQueue
	order      []types.ProcID // destinations with queued traffic, first-send order
	orderSpare []types.ProcID // drained order list being recycled
	closed     bool
	cork       int       // Cork calls not yet matched by Uncork: while positive, Send only enqueues
	flushing   bool      // a sender or a transient goroutine holds the flusher role; queued traffic is its to send
	enqSeq     uint64    // messages accepted by Send, ever
	flushSeq   uint64    // messages handed to inner
	flushCond  sync.Cond // broadcast when flushSeq advances or flushing clears; waits on mu

	drained [][]wire.Message // scratch of whoever holds the flusher role, parallel to its order
	sentOK  []bool           // likewise: whether each drained run's inner send succeeded

	met atomic.Pointer[CoalescerMetrics] // nil until SetMetrics
}

// CoalescerMetrics instruments the send-side group commit: how many
// per-destination runs were shipped (a write-through send is a run of
// width 1), how many messages they carried, and the width distribution
// (the paper-relevant number — how much fan-out one transport write
// amortizes). Observations are atomic and allocation-free.
type CoalescerMetrics struct {
	Runs  *metrics.Counter
	Msgs  *metrics.Counter
	Width *metrics.Histogram // per-destination drain-run width (count-valued)
}

// NewCoalescerMetrics wires the coalescer instruments into reg under
// the given role label (e.g. "writer", "reader").
func NewCoalescerMetrics(reg *metrics.Registry, role string) *CoalescerMetrics {
	l := metrics.L("role", role)
	return &CoalescerMetrics{
		Runs:  reg.Counter("lucky_coalescer_runs_total", "Per-destination runs shipped to the transport.", l),
		Msgs:  reg.Counter("lucky_coalescer_msgs_total", "Messages carried by drain runs.", l),
		Width: reg.Histogram("lucky_coalescer_batch_width", "Messages per drain run (count-valued buckets).", l),
	}
}

// SetMetrics attaches (or detaches, with nil) live instrumentation.
// Safe to call at any time, including while a flush is in progress.
func (c *Coalescer) SetMetrics(m *CoalescerMetrics) { c.met.Store(m) }

// destQueue is one destination's double-buffered send queue.
type destQueue struct {
	msgs   []wire.Message // accumulating buffer, guarded by Coalescer.mu
	spare  []wire.Message // drained buffer awaiting reuse
	queued bool           // whether this destination is in order
	up     bool           // the last run handed to inner for this destination succeeded
}

var (
	_ Endpoint    = (*Coalescer)(nil)
	_ Flusher     = (*Coalescer)(nil)
	_ FrameRouter = (*Coalescer)(nil)
)

// NewCoalescer wraps ep. The coalescer takes ownership: closing it
// closes ep. It starts no goroutine.
func NewCoalescer(ep Endpoint) *Coalescer {
	c := &Coalescer{
		inner:   ep,
		pending: make(map[types.ProcID]*destQueue),
	}
	c.batch, _ = ep.(BatchSender)
	c.flushCond.L = &c.mu
	return c
}

// ID implements Endpoint.
func (c *Coalescer) ID() types.ProcID { return c.inner.ID() }

// Recv implements Endpoint. Inbound traffic is not touched: transports
// already unwrap batches at the receiving endpoint boundary.
func (c *Coalescer) Recv() <-chan wire.Envelope { return c.inner.Recv() }

// RouteFrames implements FrameRouter by forwarding to the inner
// endpoint, which may lack the capability: errors.ErrUnsupported then.
func (c *Coalescer) RouteFrames(route func(from types.ProcID, frame wire.Message)) error {
	if r, ok := c.inner.(FrameRouter); ok {
		return r.RouteFrames(route)
	}
	return errors.ErrUnsupported
}

// Send implements Endpoint: it enqueues the message for its destination
// and, unless a flush is already in progress or a cork is held, flushes
// the queues — on the caller's goroutine while every queued destination
// is up, on a transient goroutine otherwise. Transport errors from the inner sends
// are dropped — the same "a dead server is a crashed server" stance
// SendAll takes, and the flusher may be carrying someone else's message
// anyway; a closed coalescer reports ErrClosed.
func (c *Coalescer) Send(to types.ProcID, m wire.Message) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	dq := c.pending[to]
	if dq == nil {
		dq = &destQueue{}
		c.pending[to] = dq
	}
	if !dq.queued {
		dq.queued = true
		c.order = append(c.order, to)
	}
	dq.msgs = append(dq.msgs, m)
	c.enqSeq++
	if c.cork == 0 {
		c.kickLocked()
	}
	c.mu.Unlock()
	return nil
}

// Cork makes Send enqueue-only until the matching Uncork, so that a run
// of sends from one goroutine leaves as one frame per destination. Corks
// count: Send writes through again once every Cork has been matched. A
// flush already in progress is not stopped — it may carry part of the
// corked traffic early, which costs a frame, never a message.
func (c *Coalescer) Cork() {
	c.mu.Lock()
	c.cork++
	c.mu.Unlock()
}

// Uncork releases one Cork and flushes whatever is queued, as a Send
// that found the coalescer idle would: on the caller's goroutine while
// every queued destination is up. Every Uncork flushes, not only the
// last: a corker goes on to wait for replies to what it queued, and must
// not depend on when an unrelated corker (a concurrent batch) lets go.
func (c *Coalescer) Uncork() {
	c.mu.Lock()
	if c.cork == 0 {
		c.mu.Unlock()
		panic("transport: Uncork without Cork")
	}
	c.cork--
	c.kickLocked()
	c.mu.Unlock()
}

// kickLocked starts a flush of the queued traffic unless someone already
// holds the flusher role. Callers hold mu.
func (c *Coalescer) kickLocked() {
	if !c.flushing && len(c.order) > 0 {
		c.flushing = true
		c.flushLocked(true)
	}
}

// Flush implements Flusher: it blocks until every message Send accepted
// before the call has been handed to the inner endpoint. "Handed to"
// is the transport contract — on TCP that means written into the
// connection buffer, not acknowledged by the peer. Queued traffic has a
// flusher working on it unless it is held by a cork, which Flush
// overrides — a cork groups sends, it never withholds them from a drain
// point.
func (c *Coalescer) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	target := c.enqSeq
	c.kickLocked()
	for c.flushSeq < target {
		c.flushCond.Wait()
	}
	return nil
}

// flushLocked holds the flusher role (c.flushing, set by the caller)
// until the queues are empty: each round detaches everything queued so
// far — swapping in each destination's spare buffer — sends one frame
// per destination run with mu released, then recycles the drained
// buffers. A flush running on a sender's goroutine (bySender) hands the
// role to a transient goroutine as soon as a destination that is not up
// has traffic queued. Called and returns with mu held.
func (c *Coalescer) flushLocked(bySender bool) {
	for len(c.order) > 0 {
		if bySender && !c.queuedAllUp() {
			go func() {
				c.mu.Lock()
				c.flushLocked(false)
				c.mu.Unlock()
			}()
			return // the role went with the goroutine
		}
		target := c.enqSeq
		order := c.order
		c.order = c.orderSpare[:0]
		c.orderSpare = nil
		drained := c.drained[:0]
		for _, to := range order {
			dq := c.pending[to]
			drained = append(drained, dq.msgs)
			dq.msgs = dq.spare[:0]
			dq.spare = nil
			dq.queued = false
		}
		c.drained = drained
		sentOK := c.sentOK[:0]
		c.mu.Unlock()

		for i, to := range order {
			sentOK = append(sentOK, c.sendRun(to, drained[i]) == nil)
		}

		// Recycle: drop message references from the drained buffers and
		// hand them back as each destination's spare. Everything enqueued
		// up to the detach point has now been handed to inner — publish
		// the progress for Flush waiters.
		c.mu.Lock()
		for i, to := range order {
			dq := c.pending[to]
			dq.up = sentOK[i]
			if dq.spare == nil {
				q := drained[i]
				clear(q)
				dq.spare = q[:0]
			}
			drained[i] = nil
		}
		c.orderSpare, c.sentOK = order[:0], sentOK
		c.flushSeq = target
		c.flushCond.Broadcast()
	}
	c.flushing = false
	c.flushCond.Broadcast() // Close waits for the role to be released
}

// queuedAllUp reports whether every destination with queued traffic is
// up. Callers hold mu.
func (c *Coalescer) queuedAllUp() bool {
	for _, to := range c.order {
		if !c.pending[to].up {
			return false
		}
	}
	return true
}

// sendRun writes one destination's drained queue: maximal runs of keyed
// messages become Batch frames (size-bounded by wire.CoalesceKeyed),
// everything else goes out alone. When the inner endpoint can frame the
// run itself (BatchSender — the TCP client), the queue is handed over
// whole and encoded directly into the connection buffer; the in-memory
// transports take the generic CoalesceKeyed path, with a direct send
// for the ubiquitous single-message round (no coalescing, and none of
// CoalesceKeyed's bookkeeping). It returns the first inner error.
func (c *Coalescer) sendRun(to types.ProcID, msgs []wire.Message) error {
	if m := c.met.Load(); m != nil {
		m.Runs.Inc()
		m.Msgs.Add(int64(len(msgs)))
		m.Width.ObserveN(int64(len(msgs)))
	}
	if c.batch != nil {
		return c.batch.SendBatched(to, msgs)
	}
	if len(msgs) == 1 {
		return c.inner.Send(to, msgs[0])
	}
	var first error
	for _, m := range wire.CoalesceKeyed(msgs) {
		if err := c.inner.Send(to, m); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close waits for whoever holds the flusher role (taking it itself for
// traffic a cork still holds) to empty the queues and only then closes
// the underlying endpoint — so Close carries the same guarantee as
// Flush: every message Send accepted has been handed to the transport.
// Waiting before closing the endpoint means a peer that
// stopped reading could in principle wedge the final sends, but a dead
// TCP peer fails writes promptly (the connection resets), and a
// live-but-not-reading server is outside the fault model; the drain
// guarantee is what the router's rebalance handoff relies on.
// Idempotent; a concurrent second Close returns once the drain is over.
func (c *Coalescer) Close() error {
	c.mu.Lock()
	first := !c.closed
	c.closed = true // no new traffic
	c.kickLocked()  // what is queued has a flusher, or gets one now
	for c.flushing {
		c.flushCond.Wait()
	}
	c.mu.Unlock()
	if !first {
		return nil
	}
	return c.inner.Close()
}
