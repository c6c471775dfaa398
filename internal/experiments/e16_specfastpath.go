package experiments

import (
	"fmt"

	"luckystore/internal/core"
	"luckystore/internal/types"
	"luckystore/internal/wire"
	"luckystore/internal/workload"
)

// E16SpecFastPath measures the contention-adaptive speculative fast
// path (DESIGN.md §12): a quiet multi-writer key elides the E13 stamp
// query and a WRITE is back to the published one-round, 2S-message
// Fig. 1 shape; contention NACKs the attempt, the writer flips to the
// query-round slow path, and one clean queried operation re-arms the
// speculation. Engagement is measured per regime (FlipRate,
// SpecFraction, mean rounds, wire messages per write) and the flip /
// back-off / re-engage cycle is pinned step by step.
func E16SpecFastPath() (*Result, error) {
	table := NewTable(
		"Speculative engagement vs contention (t=2, b=1, fw=1, S=6, 12 writes)",
		"regime", "writers", "spec-frac", "flip-rate", "mean-rounds", "msgs/write", "ok")
	pass := true
	const nOps = 12

	type regime struct {
		name    string
		writers int
		noSpec  bool
		pick    func(i int) int // which writer issues op i
		check   func(specFrac, flipRate, meanRounds, msgs float64) bool
	}
	S := 6 // the fixed t=2, b=1 shape below
	regimes := []regime{
		{
			// The SWMR control: speculation is a multi-writer mechanism,
			// single-writer deployments keep Fig. 1 untouched.
			name: "sw-baseline", writers: 1,
			pick: func(int) int { return 0 },
			check: func(sf, fr, mr, ms float64) bool {
				return sf == 0 && fr == 0 && mr == 1 && ms == float64(2*S)
			},
		},
		{
			// The pre-§12 regime E13 pins: every MW write pays the query.
			name: "mw-nospec", writers: 2, noSpec: true,
			pick: func(int) int { return 0 },
			check: func(sf, fr, mr, ms float64) bool {
				return sf == 0 && fr == 0 && mr == 2 && ms == float64(4*S)
			},
		},
		{
			// A quiet key: the first write queries (cold cache), every
			// later one speculates and completes in ONE round trip — the
			// tentpole claim. 2S messages per speculative write, no flips.
			name: "mw-quiet", writers: 2,
			pick: func(int) int { return 0 },
			check: func(sf, fr, mr, ms float64) bool {
				wantRounds := float64(2+(nOps-1)) / nOps
				wantMsgs := float64(4*S+(nOps-1)*2*S) / nOps
				return sf == float64(nOps-1)/nOps && fr == 0 &&
					mr == wantRounds && ms == wantMsgs
			},
		},
		{
			// Strict alternation: the writers race on every stamp, so some
			// attempts are NACKed (the flip rate is the adaptivity signal)
			// while tie-break winners still land speculatively.
			name: "mw-round-robin", writers: 2,
			pick: func(i int) int { return i % 2 },
			check: func(sf, fr, mr, ms float64) bool {
				return sf > 0 && sf < 1 && fr > 0 && fr < 1 && mr > 1 && mr < 2
			},
		},
	}

	for _, rg := range regimes {
		cfg := core.Config{T: 2, B: 1, Fw: 1, NumReaders: 1,
			Writers: rg.writers, NoSpec: rg.noSpec,
			RoundTimeout: expRoundTimeout, OpTimeout: expOpTimeout}
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		sim := c.Sim()
		before := sim.StatsSnapshot()
		for i := 0; i < nOps; i++ {
			k := rg.pick(i)
			if err := c.WriterN(k).Write(workload.WriterValue(k, i, 0)); err != nil {
				c.Close()
				return nil, err
			}
		}
		after := sim.StatsSnapshot()

		var st core.OpStats
		for k := 0; k < rg.writers; k++ {
			ws := c.WriterN(k).Stats()
			st.Ops += ws.Ops
			st.FastOps += ws.FastOps
			st.TotalRounds += ws.TotalRounds
			st.SpecAttempts += ws.SpecAttempts
			st.SpecOps += ws.SpecOps
			st.SpecFlips += ws.SpecFlips
		}
		c.Close()

		// Wire accounting: everything a WRITE can put on the network —
		// PW/PW_ACK/PW_NACK plus the query round's READ/READ_ACK. No
		// reader ran, so every READ here is a writer stamp query.
		delta := func(k wire.Kind) int { return after.ByKind[k] - before.ByKind[k] }
		msgs := float64(delta(wire.KindPW)+delta(wire.KindPWAck)+delta(wire.KindPWNack)+
			delta(wire.KindRead)+delta(wire.KindReadAck)) / nOps

		ok := rg.check(st.SpecFraction(), st.FlipRate(), st.MeanRounds(), msgs)
		if !ok {
			pass = false
		}
		table.AddRow(rg.name, Itoa(rg.writers),
			fmt.Sprintf("%.2f", st.SpecFraction()), fmt.Sprintf("%.2f", st.FlipRate()),
			fmt.Sprintf("%.2f", st.MeanRounds()), fmt.Sprintf("%.1f", msgs),
			Bool(ok))
	}

	// The adaptive cycle, step by step: speculate → NACK flips the
	// attempt to the query path (recording the ghost) → one queried
	// back-off operation → speculation re-engages.
	cTable := NewTable(
		"Flip and recovery (Writers=2, servers injected with installed stamp 〈50.5〉)",
		"phase", "spec", "queried", "rounds", "ghost", "stamp", "ok")
	{
		cfg := core.Config{T: 2, B: 1, Fw: 1, NumReaders: 0, Writers: 2,
			RoundTimeout: expRoundTimeout, OpTimeout: expOpTimeout}
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		w := c.WriterN(0)
		step := func(phase string, v types.Value, check func(m core.WriteMeta) bool) error {
			if err := w.Write(v); err != nil {
				c.Close()
				return err
			}
			m := w.LastMeta()
			ok := check(m)
			if !ok {
				pass = false
			}
			cTable.AddRow(phase, Bool(m.Spec), Bool(m.Queried),
				Itoa(m.Rounds), fmt.Sprintf("%v", m.Ghost),
				fmt.Sprintf("%v", m.Stamp()), Bool(ok))
			return nil
		}
		if err := step("cold-query", "a", func(m core.WriteMeta) bool {
			return !m.Spec && m.Queried && m.Rounds == 2
		}); err != nil {
			return nil, err
		}
		if err := step("speculates", "b", func(m core.WriteMeta) bool {
			return m.Spec && !m.Queried && m.Rounds == 1 && m.Fast
		}); err != nil {
			return nil, err
		}
		installed := types.Tagged{TS: 50, W: 5, Val: "raced"}
		for i := 0; i < cfg.S(); i++ {
			c.ServerAutomaton(i).(*core.Server).InjectState(installed, installed, installed)
		}
		// Three rounds: the NACKed speculative pre-write, the query and
		// the pre-write at the bound stamp.
		if err := step("nack-flips", "c", func(m core.WriteMeta) bool {
			return !m.Spec && m.Queried && !m.Ghost.IsZero() && m.Rounds == 3 &&
				m.Stamp() == (types.Stamp{Seq: 51, Writer: 0})
		}); err != nil {
			return nil, err
		}
		if err := step("backs-off", "d", func(m core.WriteMeta) bool {
			return !m.Spec && m.Queried && m.Ghost.IsZero()
		}); err != nil {
			return nil, err
		}
		if err := step("re-engages", "e", func(m core.WriteMeta) bool {
			return m.Spec && !m.Queried && m.Rounds == 1
		}); err != nil {
			return nil, err
		}
		flips := w.Stats().SpecFlips
		c.Close()
		if flips != 1 {
			pass = false
		}
	}

	return &Result{
		ID:     "E16",
		Title:  "Contention-adaptive speculative MW fast path: quiet keys write in one round",
		Claim:  "With the stamp cache warm and no recent contention, a multi-writer WRITE elides the stamp-query round and completes in one round trip (2S messages) — the published Fig. 1 shape; a server NACK flips the attempt to the E13 query path, one clean queried operation re-arms speculation, and the flip rate tracks actual contention.",
		Tables: []*Table{table, cTable},
		Pass:   pass,
	}, nil
}
