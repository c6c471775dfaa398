package core_test

// Chaos testing: randomized fault mixes (Byzantine behaviors on up to b
// servers, crashes up to t total, mid-run crash timing) under a
// concurrent workload, with full-history atomicity checking. Each seed
// is deterministic, so failures reproduce.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/core"
	"luckystore/internal/fault"
	"luckystore/internal/node"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
	"luckystore/internal/workload"
)

func TestChaosAtomicityAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runChaos(t, seed)
		})
	}
}

func runChaos(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := core.Config{T: 2, B: 1, Fw: rng.Intn(2), NumReaders: 3,
		RoundTimeout: 5 * time.Millisecond, OpTimeout: 30 * time.Second}

	// Choose the Byzantine server and its behavior.
	byzIdx := rng.Intn(cfg.S())
	behaviors := []func() node.Automaton{
		func() node.Automaton { return fault.Mute() },
		func() node.Automaton { return fault.ForgeHighTS(types.TS(1000+rng.Intn(1000)), "forged") },
		func() node.Automaton { return fault.StaleBottom() },
		func() node.Automaton { return fault.RandomLiar(seed) },
		func() node.Automaton {
			return fault.Equivocator(map[types.ProcID]types.Tagged{
				types.ReaderID(0): {TS: 500, Val: "eq0"},
				types.ReaderID(1): {TS: 600, Val: "eq1"},
			}, types.Bottom())
		},
	}
	behavior := behaviors[rng.Intn(len(behaviors))]()

	c, err := core.NewCluster(cfg, core.WithServerAutomaton(byzIdx, behavior))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One additional crash (total failures = 2 = t): either up front or
	// injected after a few processed messages.
	crashIdx := rng.Intn(cfg.S())
	if crashIdx == byzIdx {
		crashIdx = (crashIdx + 1) % cfg.S()
	}
	if rng.Intn(2) == 0 {
		c.CrashServer(crashIdx)
	} else {
		c.CrashServerAfterSteps(crashIdx, rng.Intn(40))
	}

	rec, err := workload.Mixed{Writes: 30, ReadsPerReader: 20}.RunDriver(workload.Register(c.Deployment))
	if err != nil {
		t.Fatalf("seed %d: workload: %v", seed, err)
	}
	for _, v := range checker.CheckAtomicity(rec.Ops()) {
		t.Errorf("seed %d: %v", seed, v)
	}
	for _, op := range rec.Ops() {
		if op.Kind == checker.KindRead && (op.Value.Val == "forged" ||
			op.Value.Val == "eq0" || op.Value.Val == "eq1") {
			t.Errorf("seed %d: fabricated value surfaced: %v", seed, op.Value)
		}
	}
}

// A Byzantine server answering READs with a round number from the
// future must not be counted toward any round quorum, nor poison the
// view: the reader rejects acks with Round greater than the round it is
// currently running (no correct server answers a round not yet
// started).
func TestReaderIgnoresFutureRoundAcks(t *testing.T) {
	cfg := core.Config{T: 2, B: 1, Fw: 1, NumReaders: 1,
		RoundTimeout: 15 * time.Millisecond, OpTimeout: 5 * time.Second}
	evil := types.Tagged{TS: 777, Val: "future"}
	c, err := core.NewCluster(cfg, core.WithServerAutomaton(2, futureRoundLiar(evil)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Writer().Write("real"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "real" {
		t.Errorf("Read() = %v, future-round lie interfered", got)
	}
}

// futureRoundLiar acknowledges PW/W correctly (so writes proceed) but
// answers READs with Round+7 and a fabricated pair.
func futureRoundLiar(c types.Tagged) fault.Behavior {
	return func(from types.ProcID, m wire.Message) []transport.Outgoing {
		switch v := m.(type) {
		case wire.PW:
			return []transport.Outgoing{{To: from, Msg: wire.PWAck{TS: v.TS}}}
		case wire.W:
			return []transport.Outgoing{{To: from, Msg: wire.WAck{Round: v.Round, Tag: v.Tag}}}
		case wire.Read:
			return []transport.Outgoing{{To: from, Msg: wire.ReadAck{
				TSR: v.TSR, Round: v.Round + 7,
				PW: c, W: c, VW: c,
				Frozen: types.FrozenPair{PW: c, TSR: v.TSR},
			}}}
		default:
			return nil
		}
	}
}
