package fault

// Regression (PR 5 satellite): every Byzantine behavior must be safe to
// step from multiple goroutines at once. Since PR 2 a substituted
// automaton can be driven by a pool of shard workers (node.StepPool,
// node.Runner), so internal behavior state shared across steps —
// Equivocator's client map, SplitBrain's wrapped automaton, RandomLiar's
// RNG — races unless locked. Run with -race.

import (
	"sync"
	"testing"

	"luckystore/internal/core"
	"luckystore/internal/node"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

func stepStorm(t *testing.T, name string, a node.Automaton) {
	t.Helper()
	const goroutines, steps = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := types.ReaderID(g % 3)
			if g == 0 {
				from = types.WriterID()
			}
			for i := 0; i < steps; i++ {
				switch i % 3 {
				case 0:
					a.Step(from, wire.PW{TS: types.TS(i + 1), PW: types.Tagged{TS: types.TS(i + 1), Val: "v"}, W: types.Bottom()})
				case 1:
					a.Step(from, wire.Read{TSR: types.ReaderTS(i + 1), Round: 1})
				case 2:
					a.Step(from, wire.W{Round: 2, Tag: int64(i + 1), C: types.Tagged{TS: types.TS(i + 1), Val: "v"}})
				}
			}
		}()
	}
	wg.Wait()
}

func TestBehaviorsSafeUnderParallelStepping(t *testing.T) {
	perClient := map[types.ProcID]types.Tagged{
		types.ReaderID(0): {TS: 500, Val: "eq0"},
		types.ReaderID(1): {TS: 600, Val: "eq1"},
	}
	cases := []struct {
		name string
		a    node.Automaton
	}{
		{"Mute", Mute()},
		{"ForgeHighTS", ForgeHighTS(999, "evil")},
		{"StaleBottom", StaleBottom()},
		{"RandomLiar", RandomLiar(7)},
		{"Equivocator", Equivocator(perClient, types.Bottom())},
		{"SplitBrain", NewSplitBrain(core.NewServer(), StaleBottom(), types.WriterID())},
		{"KeyedLiar", Keyed(RandomLiar(11))},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			stepStorm(t, tc.name, tc.a)
		})
	}
}

// The caller's map is snapshotted: mutating it after installation must
// not race (or alter) the behavior.
func TestEquivocatorSnapshotsClientMap(t *testing.T) {
	m := map[types.ProcID]types.Tagged{types.ReaderID(0): {TS: 500, Val: "eq0"}}
	b := Equivocator(m, types.Bottom())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			m[types.ReaderID(i%4)] = types.Tagged{TS: types.TS(i + 1), Val: "mut"}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			b.Step(types.ReaderID(0), wire.Read{TSR: 1, Round: 1})
		}
	}()
	wg.Wait()
	out := b.Step(types.ReaderID(0), wire.Read{TSR: 2, Round: 1})
	if len(out) != 1 {
		t.Fatalf("got %d replies", len(out))
	}
	ack := out[0].Msg.(wire.ReadAck)
	if ack.PW.Val != "eq0" {
		t.Errorf("mutating the caller's map changed the behavior: %v", ack.PW)
	}
}

func TestKeyedWrapsAndUnwraps(t *testing.T) {
	b := Keyed(ForgeHighTS(999, "evil"))
	out := b.Step(types.ReaderID(0), wire.Keyed{Key: "k1", Inner: wire.Read{TSR: 3, Round: 1}})
	if len(out) != 1 {
		t.Fatalf("got %d replies", len(out))
	}
	k, ok := out[0].Msg.(wire.Keyed)
	if !ok || k.Key != "k1" {
		t.Fatalf("reply not re-wrapped for the key: %v", out[0].Msg)
	}
	if ack, ok := k.Inner.(wire.ReadAck); !ok || ack.PW.Val != "evil" {
		t.Errorf("inner reply = %v", k.Inner)
	}
	// Non-keyed messages pass through.
	if out := b.Step(types.ReaderID(0), wire.Read{TSR: 4, Round: 1}); len(out) != 1 {
		t.Errorf("passthrough got %d replies", len(out))
	}
}
