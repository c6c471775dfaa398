package experiments

import (
	"fmt"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/fault"
	"luckystore/internal/node"
	"luckystore/internal/twophase"
	"luckystore/internal/types"
	"luckystore/internal/workload"
)

// E8TwoPhase reproduces Propositions 5 and 6 (Appendix C, Figure 5):
// an implementation with 2-round WRITEs and fast lucky READs despite fr
// failures exists if and only if S ≥ 2t + b + min(b, fr) + 1.
//
//   - Sufficiency: the two-phase variant (internal/twophase) at exactly
//     that S delivers 2-round writes and 1-round lucky reads despite fr
//     crashes, across several (t, b, fr) points; both counts are the
//     rounds the clients opened.
//   - Necessity: on one server fewer, the Figure 5 forged-state
//     schedule makes a reader with the forced (weakened) thresholds
//     return a never-written value; the sound thresholds instead starve
//     until the network heals.
func E8TwoPhase() (*Result, error) {
	suff := NewTable(
		"Sufficiency: two-phase variant at S = 2t+b+min(b,fr)+1 (Proposition 6)",
		"t", "b", "fr", "S", "write-rounds", "read-fast@fr", "ok")
	pass := true

	for _, p := range []struct{ t, b, fr int }{
		{2, 1, 1}, {2, 0, 2}, {3, 1, 1}, {2, 2, 1},
	} {
		cfg := twophase.Config{T: p.t, B: p.b, Fr: p.fr, NumReaders: 1,
			RoundTimeout: expRoundTimeout, OpTimeout: expOpTimeout}
		c, err := twophase.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		for i := 0; i < p.fr; i++ {
			c.CrashServer(i)
		}
		d := workload.Register(c.Deployment)
		_, w, err := d.Write(0, "", workload.Value(1, 0))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("twophase t=%d b=%d fr=%d write: %w", p.t, p.b, p.fr, err)
		}
		_, r, err := d.Read(0, "")
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("twophase t=%d b=%d fr=%d read: %w", p.t, p.b, p.fr, err)
		}
		ok := w.Rounds == 2 && r.Fast
		if !ok {
			pass = false
		}
		suff.AddRow(Itoa(p.t), Itoa(p.b), Itoa(p.fr), Itoa(cfg.S()),
			Itoa(w.Rounds), Bool(r.Fast), Bool(ok))
	}

	// ---- Necessity (Proposition 5, Figure 5): t=2, b=1, fr=1 on
	// S−1 = 2t+b+min(b,fr) = 6 servers. Blocks: T1={s0,s1}, T2={s2,s3},
	// B=s4, FB=s5. Run5: wr1 never invoked, FB forges σ1, T2's messages
	// to the reader delayed.
	nec := NewTable(
		"Necessity: one server fewer re-opens the forged-state attack (Figure 5)",
		"reader", "returned", "rounds", "ok")
	const undersized = 6 // 2t + b + min(b,fr) for t=2, b=1, fr=1
	forged := types.Tagged{TS: 1, Val: workload.Value(1, 0)}
	t2 := []types.ProcID{types.ServerID(2), types.ServerID(3)}

	runFig5 := func(weak bool) (weakReadMeta, error) {
		automata := make([]node.Automaton, undersized)
		for i := range automata {
			automata[i] = core.NewServer()
		}
		automata[5] = node.Automaton(fault.ForgeHighTS(forged.TS, forged.Val)) // FB forges σ1
		mc, err := newRawCluster(automata, 1)
		if err != nil {
			return weakReadMeta{}, err
		}
		defer mc.Close()
		for _, sid := range t2 {
			mc.Sim().Hold(sid, types.ReaderID(0))
		}
		// Thresholds on the undersized deployment: quorum S'−t = 4.
		th := core.Thresholds{S: undersized, Quorum: undersized - 2, Safe: 2,
			FastPW: undersized + 1, FastVW: undersized + 1, InvalidPW: undersized - 1 - 2}
		if weak {
			th.Safe = 1 // the acceptance forced by fast reads on S' servers
			th.FastVW = 1
		}
		var wait func()
		if !weak {
			wait = releaseAfter(mc.Sim(), 50*time.Millisecond)
		}
		m, err := weakRead(mc.Reader(0), undersized, th, 1, expRoundTimeout, expOpTimeout)
		if wait != nil {
			wait()
		}
		return m, err
	}

	{
		m, err := runFig5(true)
		if err != nil {
			return nil, err
		}
		violated := m.Returned == forged
		if !violated {
			pass = false
		}
		nec.AddRow("forced-weak (safe=1)", m.Returned.String(), Itoa(m.Rounds), Bool(violated))
	}
	{
		m, err := runFig5(false)
		if err != nil {
			return nil, err
		}
		ok := m.Returned.IsBottom() && !m.TimedOut
		if !ok {
			pass = false
		}
		nec.AddRow("sound (safe=b+1)", m.Returned.String(), Itoa(m.Rounds), Bool(ok))
	}

	return &Result{
		ID:     "E8",
		Title:  "Two-round writes + fast lucky reads (Propositions 5–6, Appendix C)",
		Claim:  "2-round WRITEs with fast lucky READs despite fr failures exist iff S ≥ 2t + b + min(b,fr) + 1.",
		Tables: []*Table{suff, nec},
		Pass:   pass,
	}, nil
}
