package storage

import (
	"time"

	"luckystore/internal/node"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Durable wraps an automaton so every state-mutating message is
// logged and committed before the replies escape: write-ahead in the
// only sense that matters — the ack is held hostage to the fsync. A
// server whose backend fails goes mute instead of replying from
// non-durable state (a mute server is a crash fault the protocol
// already tolerates; replying would risk regressing acknowledged
// state after recovery, which is Byzantine).
//
// One Durable wraps one shard/automaton and is stepped by one goroutine
// at a time (the runner or shard worker contract — with a StepPool,
// its worker or a TryStep caller, under the shard lock), so its encode
// buffer needs no lock. Many Durables share one Backend: the file
// backend's group commit turns their concurrent commits into batched
// fsyncs.
type Durable struct {
	inner node.Automaton
	back  Backend
	self  types.ProcID
	buf   []byte // record encode scratch, reused every step
	dead  bool
	met   *DurableMetrics // nil disables; set before stepping begins
}

// SetMetrics attaches live instrumentation. Like every other field, it
// is owned by the stepping goroutine: call it before the first step
// (at construction/wiring time), not concurrently with stepping.
func (d *Durable) SetMetrics(m *DurableMetrics) { d.met = m }

var (
	_ node.Automaton   = (*Durable)(nil)
	_ node.NonBlocking = (*Durable)(nil)
)

// NewDurable wraps inner so mutations persist to back before being
// acknowledged. self is the server identity stamped into records.
func NewDurable(inner node.Automaton, back Backend, self types.ProcID) *Durable {
	return &Durable{inner: inner, back: back, self: self}
}

// StepNeverBlocks implements node.NonBlocking: the inner automaton's
// answer when the backend does not fsync (Syncing), so a durable keyed
// shard commits — a write — on a read goroutine, before replying. Over
// a syncing backend it is false: an fsync there would hold the
// connection's frames for every shard (not measured).
func (d *Durable) StepNeverBlocks() bool {
	s, ok := d.back.(Syncing)
	nb, marked := d.inner.(node.NonBlocking)
	return ok && !s.CommitSyncs() && marked && nb.StepNeverBlocks()
}

// StepAppend implements node.Automaton. The order is
// step-then-commit: the automaton transitions first (its outputs are
// needed anyway), but the replies are withheld — by returning out
// unextended — unless the record is durable. On the steady-state hot
// path this adds zero allocations: the record encodes into a reused
// buffer and the backend copies it into its own reused arena.
func (d *Durable) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	if d.dead {
		return out
	}
	n := len(out)
	res := d.inner.StepAppend(from, m, out)
	if !Mutating(m) {
		return res
	}
	var t0 time.Time
	if d.met != nil {
		t0 = time.Now()
	}
	var err error
	d.buf, err = AppendRecord(d.buf[:0], from, d.self, m)
	if err == nil {
		err = d.back.Append(d.buf)
	}
	if err == nil {
		err = d.back.Commit()
	}
	if err != nil {
		d.dead = true
		return res[:n]
	}
	if d.met != nil {
		d.met.Appends.Inc()
		d.met.AppendLatency.ObserveSince(t0)
	}
	return res
}

// RecoverShards is the one recipe every durable server follows: it
// replays back into a — the server's automaton, whose shards are
// shards (a itself for a one-shard server) — and returns the shards to
// step, each wrapped in a Durable that shares back, so their records
// land in one ordered log and their commits share group fsyncs. met
// may be nil. With a nil back the server keeps state in memory only,
// and shards come back as given. It does not close back on error.
func RecoverShards(back Backend, a node.Automaton, shards []node.Automaton, self types.ProcID, met *DurableMetrics) ([]node.Automaton, error) {
	if back == nil {
		return shards, nil
	}
	if _, err := Recover(back, a); err != nil {
		return nil, err
	}
	out := make([]node.Automaton, len(shards))
	for j, sh := range shards {
		d := NewDurable(sh, back, self)
		d.SetMetrics(met)
		out[j] = d
	}
	return out, nil
}
