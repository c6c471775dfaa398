package storage

import (
	"sync"

	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Memory is the in-memory Backend: a single grow-only byte arena plus
// record lengths. It has the same record semantics as the file backend
// (append order, compaction) without the disk, so simnet deployments
// exercise genuine log replay on warm restarts and the file backend's
// alloc overhead can be measured against a like-for-like baseline.
//
// Append copies into the arena with amortized growth: steady-state
// appends allocate nothing, matching the hot-path contract.
type Memory struct {
	mu      sync.Mutex
	buf     []byte // concatenated payloads
	lens    []int  // payload lengths, in append order
	factory func() Automaton

	snapRecords int // records belonging to the last snapshot
	compactions int64
	closed      bool
}

// NewMemory creates an in-memory backend. factory builds the private
// automaton used for compaction; nil disables compaction.
func NewMemory(factory func() Automaton) *Memory {
	return &Memory{factory: factory}
}

// Append implements Backend.
func (m *Memory) Append(payload []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if len(payload) > MaxRecordSize {
		return ErrCorrupt
	}
	m.buf = append(m.buf, payload...)
	m.lens = append(m.lens, len(payload))
	if m.factory != nil && len(m.lens)-m.snapRecords > compactThreshold(defaultMinTail, m.snapRecords) {
		return m.compactLocked()
	}
	return nil
}

// Commit implements Backend. Memory is always "durable".
func (m *Memory) Commit() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

// Replay implements Backend.
func (m *Memory) Replay(fn func(payload []byte) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	off := 0
	for _, n := range m.lens {
		if err := fn(m.buf[off : off+n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// Wipe implements Backend.
func (m *Memory) Wipe() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.buf = m.buf[:0]
	m.lens = m.lens[:0]
	m.snapRecords = 0
	return nil
}

// Stats implements Backend.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Records:     len(m.lens),
		TailRecords: len(m.lens) - m.snapRecords,
		Bytes:       int64(len(m.buf)),
		Compactions: m.compactions,
	}
}

// Close implements Backend.
func (m *Memory) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// compactLocked replays the whole log into a private automaton and
// replaces it with that automaton's snapshot records.
func (m *Memory) compactLocked() error {
	a := m.factory()
	r := replayer{a: a}
	off := 0
	for _, n := range m.lens {
		if err := r.step(m.buf[off : off+n]); err != nil {
			return err
		}
		off += n
	}
	buf, lens, err := snapshotPayloads(a)
	if err != nil {
		return err
	}
	m.buf, m.lens = buf, lens
	m.snapRecords = len(lens)
	m.compactions++
	return nil
}

// defaultMinTail is the log-tail floor of compaction: Memory's, and a
// File's unless WithCompactEvery gives another.
const defaultMinTail = 256

// compactThreshold is the tail-growth bound before a snapshot: the
// log may hold a floor of minTail records, or a few multiples of the
// live state, whichever is larger — so stored bytes stay proportional
// to state, not to write history (the space-bounds yardstick).
func compactThreshold(minTail, liveRecords int) int {
	return max(minTail, 4*liveRecords)
}

// snapshotDest is the To identity stamped on snapshot records. Replay
// ignores the destination; any valid wire ID works.
var snapshotDest = types.ServerID(0)

// snapshotPayloads collects an automaton's snapshot records as
// encoded payloads in one arena: Memory's log after a compaction, and
// the records File frames into a snapshot segment.
func snapshotPayloads(a Automaton) (buf []byte, lens []int, err error) {
	emitErr := a.SnapshotRecords(func(from types.ProcID, msg wire.Message) error {
		start := len(buf)
		var aerr error
		buf, aerr = AppendRecord(buf, from, snapshotDest, msg)
		if aerr != nil {
			buf = buf[:start]
			return aerr
		}
		lens = append(lens, len(buf)-start)
		return nil
	})
	return buf, lens, emitErr
}
