// Package storage gives servers a durable write-ahead log. A server
// automaton is wrapped in a Durable stepper that appends every
// state-mutating message to a Backend and waits for it to commit
// before releasing the replies — nothing is acknowledged that a crash
// could lose. Recovery replays the log back into a fresh automaton:
// because every server transition is a monotone merge, replaying a
// superset (committed-but-unacknowledged records) or a suffix twice is
// harmless, which is what makes the torn-tail truncation and the
// snapshot/compaction crash windows safe (DESIGN.md §11).
package storage

import (
	"errors"
	"fmt"

	"luckystore/internal/node"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

var (
	// ErrCorrupt reports a record that is inside the durable prefix —
	// a sealed snapshot segment, or the log body before the torn tail —
	// yet fails its CRC or decode. Unlike a torn tail (unacknowledged
	// by construction), corrupt committed data may have been
	// acknowledged to clients; silently dropping it would turn a crash
	// fault into a Byzantine one, so recovery refuses instead.
	ErrCorrupt = errors.New("storage: corrupt record")
	// ErrClosed reports use of a closed backend.
	ErrClosed = errors.New("storage: backend closed")
	// ErrDiskFault is the sticky error a Fault backend surfaces once a
	// scheduled fault fires: the disk is gone until the backend is
	// reopened (healed).
	ErrDiskFault = errors.New("storage: injected disk fault")
)

// MaxRecordSize bounds one WAL record payload (1 MiB). A register
// value plus envelope overhead is far smaller; the cap keeps a forged
// length prefix in a corrupted log from driving a giant allocation
// during recovery.
const MaxRecordSize = 1 << 20

// Backend is a durable append-only record log. Append buffers one
// record; Commit makes everything appended so far durable (the file
// backend group-commits: concurrent committers share one fsync).
// Implementations are safe for concurrent use — one backend is shared
// by all shards of a server process so their records land in a single
// ordered log with batched fsyncs.
type Backend interface {
	// Append buffers one record. The payload is copied; the caller may
	// reuse its buffer immediately.
	Append(payload []byte) error
	// Commit makes every record appended before the call durable.
	Commit() error
	// Replay calls fn for each durable record in append order
	// (snapshot records first, then the log tail). The payload is only
	// valid during the call.
	Replay(fn func(payload []byte) error) error
	// Wipe discards all records: the amnesiac restart
	// (RestartServerFresh) — the disk burned down with the process.
	Wipe() error
	// Stats reports record and byte counts for tests and luckyctl.
	Stats() Stats
	// Close flushes and fsyncs anything pending and releases the
	// backend.
	Close() error
}

// Syncing is an optional Backend capability: CommitSyncs reports
// whether Commit may wait on a device barrier (fsync). A Backend that
// does not implement it is taken to.
type Syncing interface{ CommitSyncs() bool }

// Stats describes a backend's current contents.
type Stats struct {
	// Records is the total replayable record count (snapshot + tail).
	Records int
	// TailRecords counts records appended since the last compaction.
	TailRecords int
	// Bytes is the stored log size (snapshot + tail, framing included).
	Bytes int64
	// Compactions counts snapshot+truncate cycles performed.
	Compactions int64
}

// Snapshotter is implemented by automata that can emit their state as
// a bounded sequence of synthetic protocol messages: replaying the
// emitted records into a fresh automaton reproduces the state. Because
// snapshots are ordinary records, recovery has exactly one code path.
type Snapshotter interface {
	SnapshotRecords(emit func(from types.ProcID, m wire.Message) error) error
}

// Automaton is what a backend needs for compaction and recovery: a
// steppable automaton that can snapshot itself. core.Server and
// keyed.ShardedServer satisfy it structurally.
type Automaton interface {
	node.Automaton
	Snapshotter
}

// Sized is optionally implemented by automata that can estimate their
// live state (core.Server.StateSize); compaction uses it to scale the
// log-growth threshold to the state actually worth snapshotting.
type Sized interface {
	StateSize() (frozenSlots, readerSlots int)
}

// Provider opens named backends: one per server process. Cluster
// constructors take a Provider so deployments choose memory or file
// storage without the cluster knowing the difference.
type Provider interface {
	Open(name string) (Backend, error)
}

// AppendRecord encodes one WAL record payload: a wire format version
// byte followed by the binary envelope. Reuses the caller's buffer —
// zero allocations once the buffer has grown to steady size.
func AppendRecord(buf []byte, from, to types.ProcID, m wire.Message) ([]byte, error) {
	buf = append(buf, wire.FormatVersion)
	return wire.AppendEnvelope(buf, wire.Envelope{From: from, To: to, Msg: m})
}

// DecodeRecord decodes a WAL record payload produced by AppendRecord.
func DecodeRecord(p []byte) (wire.Envelope, error) {
	if len(p) == 0 {
		return wire.Envelope{}, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	env, err := wire.DecodeEnvelopeVersion(p[0], p[1:])
	if err != nil {
		return wire.Envelope{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return env, nil
}

// Mutating reports whether a message can change server automaton
// state and therefore must be logged before its reply is released.
// Acks never mutate; READ round 1 leaves no trace (the fast path stays
// log-free); everything the automaton merges is logged. Logging a
// message the automaton would drop (a stale retransmission, a W from a
// reader under the regular variant) is harmless: replay steps it
// through the same automaton, which drops it identically.
func Mutating(m wire.Message) bool {
	switch v := m.(type) {
	case wire.Keyed:
		return Mutating(v.Inner)
	case wire.PW:
		return true
	case wire.W:
		return true
	case wire.ABDWrite:
		return true
	case wire.Read:
		return v.Round > 1
	default:
		return false
	}
}

// Recover replays every durable record of b into a, discarding the
// replies (the clients they were addressed to are long gone). Returns
// the number of records replayed. A record that passed its CRC but
// fails to decode is corruption, not a torn tail — recovery refuses
// rather than silently dropping possibly-acknowledged state.
func Recover(b Backend, a node.Automaton) (int, error) {
	r := replayer{a: a}
	err := b.Replay(r.step)
	return r.n, err
}

// replayer is the one decode-and-step of recovery and compaction: it
// steps each record payload it is given into a, discarding the replies
// into a reused scratch buffer, and counts the records stepped.
type replayer struct {
	a       node.Automaton
	n       int
	scratch []transport.Outgoing
}

func (r *replayer) step(p []byte) error {
	env, err := DecodeRecord(p)
	if err != nil {
		return fmt.Errorf("record %d: %w", r.n, err)
	}
	r.scratch = r.a.StepAppend(env.From, env.Msg, r.scratch[:0])
	r.n++
	return nil
}
