package node_test

import (
	"testing"

	"luckystore/internal/abd"
	"luckystore/internal/core"
	"luckystore/internal/fault"
	"luckystore/internal/keyed"
	"luckystore/internal/node"
	"luckystore/internal/storage"
	"luckystore/internal/transport"
	"luckystore/internal/twophase"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// TestStepSinkContract holds every production automaton to the
// step-sink contract (node.Automaton): StepAppend onto a caller's
// prefix leaves the prefix untouched and only appends, and a correct
// automaton returns exactly the prefix for a message it drops. An
// automaton that returns a fresh slice would drop the caller's prefix
// without a sound anywhere else.
func TestStepSinkContract(t *testing.T) {
	w, r0, r1 := types.WriterID(), types.ReaderID(0), types.ReaderID(1)
	one := types.Tagged{TS: 1, Val: "a"}
	pw := wire.PW{TS: 1, PW: one, W: types.Bottom()}
	read := wire.Read{TSR: 1, Round: 1}
	bad := wire.Read{TSR: 1, Round: 0}
	key := func(m wire.Message) wire.Message { return wire.Keyed{Key: "k", Inner: m} }
	newCore := func() node.Automaton { return core.NewServer() }

	for _, tc := range []struct {
		name    string
		auto    node.Automaton
		from    types.ProcID
		m       wire.Message
		replies int
		bad     wire.Message // dropped by a correct automaton; nil for a liar
	}{
		{"core", core.NewServer(), w, pw, 1, bad},
		{"core regular", core.NewRegularServer(), w, pw, 1, bad},
		{"keyed shard", keyed.NewShardedServer(1, newCore).Shards()[0], w, key(pw), 1, key(bad)},
		{"keyed server", keyed.NewShardedServer(4, newCore), w, key(pw), 1, key(bad)},
		{"durable", storage.NewDurable(core.NewServer(), storage.NewMemory(nil), types.ServerID(0)), w, pw, 1, bad},
		{"abd", abd.NewServer(), w, wire.ABDWrite{Seq: 1, C: one}, 1, bad},
		{"twophase", twophase.NewServer(), w, pw, 1, bad},
		{"mute", fault.Mute(), r0, read, 0, nil},
		{"forge", fault.ForgeHighTS(9, "x"), r0, read, 1, nil},
		{"stale", fault.StaleBottom(), r0, read, 1, nil},
		{"random", fault.RandomLiar(1), r0, read, 1, nil},
		{"equivocator", fault.Equivocator(map[types.ProcID]types.Tagged{r0: one}, one), r0, read, 1, nil},
		{"keyed liar", fault.Keyed(fault.StaleBottom()), r0, key(read), 1, nil},
		{"split brain honest", fault.NewSplitBrain(core.NewServer(), fault.StaleBottom(), r0), r0, read, 1, nil},
		{"split brain lying", fault.NewSplitBrain(core.NewServer(), fault.StaleBottom(), r0), r1, read, 1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sentinels := []transport.Outgoing{
				{To: types.ServerID(7), Msg: wire.WAck{Round: 1, Tag: -1}},
				{To: types.ServerID(8), Msg: wire.WAck{Round: 2, Tag: -2}},
			}
			check := func(m wire.Message, replies int) {
				t.Helper()
				buf := append(make([]transport.Outgoing, 0, 8), sentinels...)
				got := tc.auto.StepAppend(tc.from, m, buf)
				if len(got) != len(sentinels)+replies {
					t.Fatalf("StepAppend(%+v) returned %d entries, want the %d of the prefix and %d replies",
						m, len(got), len(sentinels), replies)
				}
				for i, s := range sentinels {
					if buf[i] != s || got[i] != s {
						t.Fatalf("StepAppend(%+v) changed prefix entry %d: buf %+v, returned %+v", m, i, buf[i], got[i])
					}
				}
			}
			check(tc.m, tc.replies)
			if tc.bad != nil {
				check(tc.bad, 0)
			}
		})
	}
}
