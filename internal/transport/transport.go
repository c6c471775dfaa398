// Package transport defines the process-to-process communication
// abstraction shared by the in-memory simulated network
// (internal/simnet) and the TCP network (internal/tcpnet).
//
// The paper's model (Section 2) assumes point-to-point reliable
// channels: every message sent between two non-faulty processes is
// eventually delivered, possibly after an arbitrary delay. The key
// consequence for an implementation is that a sender must never block
// on a slow receiver; the Mailbox type provides the required unbounded
// buffering.
package transport

import (
	"errors"
	"fmt"
	"sync"

	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// ErrClosed is returned by operations on a closed endpoint or network.
var ErrClosed = errors.New("transport closed")

// ErrUnknownPeer is returned when sending to an unregistered process.
var ErrUnknownPeer = errors.New("unknown peer")

// Endpoint is one process's attachment to a network. Send enqueues a
// message for asynchronous delivery (it never blocks on the receiver);
// Recv exposes the process's inbox. The channel is closed after Close.
type Endpoint interface {
	ID() types.ProcID
	Send(to types.ProcID, m wire.Message) error
	Recv() <-chan wire.Envelope
	Close() error
}

// BatchSender is an optional Endpoint fast path for drained send
// queues: a transport that can frame a whole per-destination run itself
// — e.g. tcpnet's client, which streams keyed runs into Batch frames
// directly inside its connection buffer — implements it, and the
// Coalescer hands the queue over instead of materializing intermediate
// wire.Batch values and encoding them frame by frame. Implementations
// must produce exactly the frames wire.CoalesceKeyed would (same
// splitting budgets, same order), so the fast path is indistinguishable
// on the wire.
type BatchSender interface {
	SendBatched(to types.ProcID, msgs []wire.Message) error
}

// FrameRouter is the receive-side twin of BatchSender: once RouteFrames
// succeeds, the endpoint hands route each inbound frame's message (a
// wire.Batch whole) and its sender on the goroutine that read the frame,
// never after its Close returns, and Recv carries nothing. route must
// not block. An endpoint that cannot route returns an error and keeps
// delivering on Recv (keyed.Demux then reads it).
type FrameRouter interface {
	RouteFrames(route func(from types.ProcID, frame wire.Message)) error
}

// Flusher is an optional Endpoint capability: Flush blocks until every
// message accepted by Send before the call has been handed to the
// underlying transport. Layers that buffer sends (the Coalescer, and
// anything stacked on one — keyed.Demux, kv.Store) implement it so
// callers can establish a deterministic drain point, e.g. the router's
// rebalance boundary before a cluster is retired.
type Flusher interface {
	Flush() error
}

// Network hands out endpoints for registered processes.
type Network interface {
	// Endpoint returns the endpoint of the process with the given id.
	Endpoint(id types.ProcID) (Endpoint, error)
	// Close shuts the network down and closes every endpoint.
	Close() error
}

// Outgoing couples a destination with a message; automata return slices
// of Outgoing from their step functions so they stay pure and testable.
type Outgoing struct {
	To  types.ProcID
	Msg wire.Message
}

// SendAll delivers each outgoing message through ep, attempting every
// send. A failed send to an individual peer is tolerated silently: on a
// real transport it means the peer has crashed, which the protocols
// already tolerate (the model's reliable channels only bind correct
// processes). SendAll returns the first error only when every send
// failed — e.g. the endpoint itself is closed — since then the
// operation cannot make progress.
func SendAll(ep Endpoint, out []Outgoing) error {
	var firstErr error
	failed := 0
	for _, o := range out {
		if err := ep.Send(o.To, o.Msg); err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("send to %s: %w", o.To, err)
			}
		}
	}
	if len(out) > 0 && failed == len(out) {
		return firstErr
	}
	return nil
}

// Mailbox is an unbounded FIFO queue bridging a never-blocking Put to a
// channel-based consumer. It models a reliable asynchronous channel: Put
// always succeeds until Close, and every element put before Close is
// eventually emitted on Out (unless the consumer abandons the mailbox,
// in which case Close discards the backlog). Endpoints queue envelopes
// in it, and drive.Inbox runs of replies.
//
// Put delivers straight into the buffered Out channel — one hand-off,
// producer to consumer, and no goroutine of the mailbox's own. Only
// when the consumer lags by more than the buffer does Put fall back to
// an overflow queue, and only then does a drainer goroutine exist: it
// is started by the Put that overflows, moves the queue into Out in
// order, and exits once the queue is empty. While the queue is
// non-empty (or the drainer holds an element) every Put appends behind
// it, so FIFO order holds across the direct/overflow boundary. An idle
// or keeping-up mailbox therefore parks no goroutine, and Close joins
// the drainer if one is running — no goroutine outlives the mailbox.
//
// The overflow queue is a slice with a head index, compacted in place
// when it fills, so the backing array is reused across overflow
// episodes instead of sliding forward and reallocating. A gated mailbox
// also queues what its consumer asked it to withhold (Gate).
type Mailbox[T any] struct {
	mu       sync.Mutex
	queue    []T  // overflow or withheld elements, in arrival order
	head     int  // index of the next queued element to deliver
	draining bool // a drainer goroutine is running
	inHand   bool // ... and holds an element it took off the queue
	closed   bool

	weight func(T) int // an element's weight at the gate; nil: no gate
	gate   int         // withhold Puts until held reaches it; 0: open
	held   int         // weight of the withheld elements

	out  chan T
	stop chan struct{} // closed by Close: aborts a drainer blocked on the consumer
	idle sync.Cond     // signalled when the drainer exits; waits on mu
}

// mailboxBuffer is the capacity of Out. A client endpoint's inbox takes
// the replies to every key its process has in flight, one entry per
// message of a batch frame: a round of a 32-key batch over S = 3 is 96
// replies in three 32-entry frames, which 128 holds without the
// overflow path; server inboxes under pipelined load overflow and are
// drained, which is the old behaviour. A driver's inbox takes one entry
// per reply frame, so a round of any batch over S = 3 is three entries.
const mailboxBuffer = 128

// NewMailbox creates a mailbox. It starts no goroutine.
func NewMailbox[T any]() *Mailbox[T] {
	m := &Mailbox[T]{
		out:  make(chan T, mailboxBuffer),
		stop: make(chan struct{}),
	}
	m.idle.L = &m.mu
	return m
}

// NewGatedMailbox creates a mailbox whose Gate weighs elements by weight.
func NewGatedMailbox[T any](weight func(T) int) *Mailbox[T] {
	m := NewMailbox[T]()
	m.weight = weight
	return m
}

// Put enqueues v. It returns ErrClosed after Close and never blocks on
// the consumer.
func (m *Mailbox[T]) Put(v T) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	withhold := m.gate > 0 && !m.draining
	if !m.draining && !withhold {
		// Nothing is queued ahead of v, so it may go straight to the
		// consumer. The send cannot block (default case) and cannot hit a
		// closed channel (Close closes out under mu).
		select {
		case m.out <- v:
			return nil
		default:
		}
	}
	if m.head > 0 && len(m.queue) == cap(m.queue) {
		// Compact instead of growing: reclaim the delivered prefix so
		// the backing array is reused rather than reallocated.
		n := copy(m.queue, m.queue[m.head:])
		clear(m.queue[n:]) // drop stale references past the new tail
		m.queue = m.queue[:n]
		m.head = 0
	}
	m.queue = append(m.queue, v)
	if withhold {
		if m.held += m.weight(v); m.held >= m.gate {
			m.release()
		}
	} else if !m.draining {
		m.draining = true
		go m.drain()
	}
	return nil
}

// Gate makes a gated mailbox withhold what is put until it weighs n, and
// then hand it all over; n ≤ 0 hands over what is withheld now. What Out
// holds, or a drainer moves, is not withheld; Close drops what is.
func (m *Mailbox[T]) Gate(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.weight != nil {
		if m.gate = n; m.held >= n {
			m.release()
		}
	}
}

// release opens the gate: the withheld elements go to Out, by a drainer
// for those it has no room for. It holds mu.
func (m *Mailbox[T]) release() {
	m.gate, m.held = 0, 0
	if m.draining {
		return // nothing is withheld behind a backlog
	}
	var zero T
	for ; m.head < len(m.queue); m.head++ {
		select {
		case m.out <- m.queue[m.head]:
			m.queue[m.head] = zero
		default:
			m.draining = true
			go m.drain()
			return
		}
	}
	m.queue, m.head = m.queue[:0], 0
}

// Out returns the delivery channel. It is closed by Close; elements
// still queued at that point, withheld or overflowing, are discarded
// (the consumer is gone — this models a crashed process).
func (m *Mailbox[T]) Out() <-chan T { return m.out }

// Close stops the mailbox, waits for the drainer goroutine (if one is
// running) to exit, and closes Out. It is idempotent.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	first := !m.closed
	if first {
		m.closed = true
		close(m.stop)
	}
	for m.draining {
		m.idle.Wait()
	}
	if first {
		m.queue, m.head, m.held = nil, 0, 0
		close(m.out)
	}
}

// Len reports the number of queued, not-yet-delivered elements, the
// withheld ones and the one a drainer holds included. For the instant
// between a drainer's hand-over and its next look at the queue, that
// one counts twice.
func (m *Mailbox[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.out) + len(m.queue) - m.head
	if m.inHand {
		n++
	}
	return n
}

// drain moves the overflow queue into out, in order, and exits when it
// is empty (or on Close). It runs only while there is a backlog.
func (m *Mailbox[T]) drain() {
	var zero T
	m.mu.Lock()
	for !m.closed && m.head < len(m.queue) {
		v := m.queue[m.head]
		m.queue[m.head] = zero // let the GC have it once delivered
		m.head++
		m.inHand = true
		m.mu.Unlock()
		// Block on the consumer, but abort if Close happens while the
		// consumer is gone so shutdown never deadlocks. draining stays
		// set, so no Put can overtake the element in hand.
		select {
		case m.out <- v:
		case <-m.stop:
		}
		m.mu.Lock()
		m.inHand = false
	}
	if !m.closed {
		m.queue, m.head = m.queue[:0], 0 // empty: rewind to reuse the array
	}
	m.draining = false
	m.idle.Broadcast()
	m.mu.Unlock()
}
