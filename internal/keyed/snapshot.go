package keyed

import (
	"sort"

	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// snapshotter mirrors storage.Snapshotter structurally, so this
// package stays free of a storage dependency.
type snapshotter interface {
	SnapshotRecords(emit func(from types.ProcID, m wire.Message) error) error
}

// SnapshotRecords implements storage.Snapshotter for the keyed server:
// each register's snapshot records are emitted wrapped in that key's
// Keyed envelope, in sorted key order across every shard, so snapshots
// are deterministic and the same bytes whatever the shard count.
// Registers whose automata cannot snapshot themselves are skipped. The
// caller must own every shard (compaction and recovery both own their
// automaton privately).
func (s *ShardedServer) SnapshotRecords(emit func(from types.ProcID, m wire.Message) error) error {
	var keys []string
	for _, sh := range s.shards {
		for k := range sh.regs {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		sn, ok := s.shards[ShardIndex(key, len(s.shards))].regs[key].(snapshotter)
		if !ok {
			continue
		}
		if err := sn.SnapshotRecords(func(from types.ProcID, m wire.Message) error {
			return emit(from, wire.Keyed{Key: key, Inner: m})
		}); err != nil {
			return err
		}
	}
	return nil
}

// Step implements node.Automaton across the whole sharded server for
// single-goroutine contexts — log replay during recovery and compaction
// steps keyed records through the same routing the live traffic used.
// It must not race the shard workers: recover before the runner starts.
func (s *ShardedServer) Step(from types.ProcID, m wire.Message) []transport.Outgoing {
	i := 0
	if k, ok := m.(wire.Keyed); ok {
		i = ShardIndex(k.Key, len(s.shards))
	}
	return s.shards[i].Step(from, m)
}
