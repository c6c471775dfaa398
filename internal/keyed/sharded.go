package keyed

import (
	"hash/fnv"
	"sort"
	"sync/atomic"

	"luckystore/internal/node"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// ShardIndex maps a register name to its owning shard: FNV-1a over the
// key, mod the shard count. It is the single routing function shared by
// the server pool and anything that needs to reason about placement, so
// a key's automaton lives on exactly one shard. Shard counts below 1
// are treated as 1, matching NewShardedServer's floor; one shard needs
// no hash.
func ShardIndex(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(shards))
}

// ShardedServer is the keyed server split across shards: shard i holds
// the automata of every key with ShardIndex(key, n) == i in a plain,
// unlocked map. Each shard implements node.Automaton and must be
// stepped by one goroutine at a time, consecutive steps ordered by a
// happens-before edge — node.StepPool's per-shard lock — so no lock is
// shared between keys of different shards. With n = 1 it is the plain
// keyed server that storage replay and offline tooling step.
type ShardedServer struct {
	shards []*shard
	regs   atomic.Int64
}

// shard owns the automata of its keys exclusively; no locking anywhere.
// Its state is memory only, so its node.NonBlocking answer is true — provided
// the factory's per-register automata compute on memory too, which
// every register automaton of this repository does.
type shard struct {
	parent  *ShardedServer
	regs    map[string]node.Automaton
	factory func() node.Automaton
}

var (
	_ node.Automaton     = (*shard)(nil)
	_ node.AppendStepper = (*shard)(nil)
	_ node.NonBlocking   = (*shard)(nil)
)

// NewShardedServer creates a keyed server split across n shards whose
// per-register automata come from factory.
func NewShardedServer(n int, factory func() node.Automaton) *ShardedServer {
	if n < 1 {
		n = 1
	}
	s := &ShardedServer{shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = &shard{
			parent:  s,
			regs:    make(map[string]node.Automaton),
			factory: factory,
		}
	}
	return s
}

// Shards returns the per-shard automata, for node.NewShardedRunner and
// tcpnet.ListenSharded.
func (s *ShardedServer) Shards() []node.Automaton {
	out := make([]node.Automaton, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh
	}
	return out
}

// Route returns the dispatch function pairing this server with its
// shards' step pool: keyed messages go to their key's shard, anything
// else to shard 0 (whose Step drops it as malformed).
func (s *ShardedServer) Route() func(wire.Message) int {
	n := len(s.shards)
	return func(m wire.Message) int {
		if k, ok := m.(wire.Keyed); ok {
			return ShardIndex(k.Key, n)
		}
		return 0
	}
}

// Regs reports the number of instantiated registers across all shards.
// It is safe to call concurrently with stepping.
func (s *ShardedServer) Regs() int { return int(s.regs.Load()) }

// NumShards reports the shard count.
func (s *ShardedServer) NumShards() int { return len(s.shards) }

// RangeShard calls fn for every instantiated register of shard i in
// sorted key order. The shard's map is unlocked by design, so the call
// MUST run with exclusive ownership of the shard: on the shard's
// worker goroutine (node.StepPool.Do — how the admin API's live
// /debug/stamps walks a serving store) or on a quiesced server.
func (s *ShardedServer) RangeShard(i int, fn func(key string, reg node.Automaton)) {
	if i < 0 || i >= len(s.shards) {
		return
	}
	sh := s.shards[i]
	keys := make([]string, 0, len(sh.regs))
	for k := range sh.regs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fn(k, sh.regs[k])
	}
}

// StepNeverBlocks implements node.NonBlocking: a map lookup and a
// register step, no I/O.
func (sh *shard) StepNeverBlocks() bool { return true }

// Step implements node.Automaton for one shard: unwrap, dispatch to the
// key's automaton, re-wrap. The map access is unlocked — the shard's
// driver lets one goroutine at a time in here.
func (sh *shard) Step(from types.ProcID, m wire.Message) []transport.Outgoing {
	return sh.StepAppend(from, m, nil)
}

// StepAppend implements node.AppendStepper: the key's automaton appends
// its replies directly into out and the suffix is re-wrapped in place,
// so a shard worker with a scratch buffer steps without slice
// allocations.
func (sh *shard) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	k, ok := m.(wire.Keyed)
	// Validate m, not the unboxed k: re-boxing would allocate per step.
	if !ok || wire.Validate(m) != nil {
		return out
	}
	reg, exists := sh.regs[k.Key]
	if !exists {
		reg = sh.factory()
		sh.regs[k.Key] = reg
		sh.parent.regs.Add(1)
	}
	return rewrapAppended(k.Key, out, node.StepInto(reg, from, k.Inner, out))
}

// rewrapAppended wraps the replies a keyed step appended past the
// caller's prefix back into the register's Keyed envelope.
func rewrapAppended(key string, prefix, out []transport.Outgoing) []transport.Outgoing {
	for i := len(prefix); i < len(out); i++ {
		out[i].Msg = wire.Keyed{Key: key, Inner: out[i].Msg}
	}
	return out
}
