package experiments

import (
	"time"

	"luckystore/internal/core"
	"luckystore/internal/fault"
	"luckystore/internal/node"
	"luckystore/internal/types"
	"luckystore/internal/workload"
)

// E7WriteBound reproduces Proposition 4 (Appendix B): no optimally
// resilient SAFE storage can have every lucky WRITE fast despite more
// than t − b failures. Blocks (t=2, b=1, fw=2): B1=s0, B2=s1,
// T1={s2,s3}, Fw={s4,s5}.
//
// Measured runs:
//
//  1. r1-analog — an over-eager writer that declares success after
//     S − fw = 4 PW acks (fw = 2 > t−b = 1) completes in one round
//     while Fw's messages are in transit.
//  2. r3-analog — after that "complete" write, T1's replies are delayed
//     (asynchrony) and B2 denies: a contention-free reader sees one
//     witness for v1 and three ⊥. With sound thresholds it returns ⊥ —
//     missing a completed write, i.e. the over-eager implementation is
//     NOT safe. A weakened reader (safe=1) returns v1 instead.
//  3. r4-analog — same picture, but the write never happened and B1
//     forged its state: the weakened reader returns a never-written
//     value, violating safeness too. Either way, fw > t−b is untenable.
func E7WriteBound() (*Result, error) {
	const (
		t, b = 2, 1
		s    = 2*t + b + 1 // 6
		fwN  = 2           // over budget: t−b = 1
	)
	var (
		b1 = types.ServerID(0)
		b2 = types.ServerID(1)
		t1 = []types.ProcID{types.ServerID(2), types.ServerID(3)}
		fw = []types.ProcID{types.ServerID(4), types.ServerID(5)}
	)

	paperTh := core.Config{T: t, B: b, Fw: 1}.Thresholds()
	weakTh := paperTh
	weakTh.Safe = 1
	weakTh.FastVW = 1

	table := NewTable(
		"Fast-write bound fw ≤ t − b (Proposition 4; t=2, b=1, over-eager fw=2)",
		"run", "observation", "ok")
	pass := true
	addRow := func(run, obs string, ok bool) {
		if !ok {
			pass = false
		}
		table.AddRow(run, obs, Bool(ok))
	}
	v1 := types.Tagged{TS: 1, Val: workload.Value(1, 0)}

	// buildRun assembles the schedule common to r3/r4: B2 split-brain
	// denying to readers, T1 crashed, Fw's writer links held.
	buildRun := func(forgeB1 bool) (*rawCluster, error) {
		automata := coreServers(s)
		if forgeB1 {
			automata[b1.Index()] = node.Automaton(fault.ForgeHighTS(v1.TS, v1.Val))
		}
		realB2 := core.NewServer()
		automata[b2.Index()] = node.Automaton(fault.NewSplitBrain(realB2, fault.StaleBottom(), types.WriterID()))
		mc, err := newRawCluster(automata, 1)
		if err != nil {
			return nil, err
		}
		for _, sid := range fw {
			mc.Sim().Hold(types.WriterID(), sid)
		}
		return mc, nil
	}

	// ---- r1/r3-analog: the over-eager write completes in one round;
	// then the paper reader starves while the weakened one returns v1.
	{
		mc, err := buildRun(false)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := overEagerWrite(mc.Writer(), s, s-fwN, v1.TS, v1.Val, expOpTimeout); err != nil {
			mc.Close()
			return nil, err
		}
		addRow("r1: over-eager write, Fw in transit",
			"write declared complete after 1 round with S−2 acks", time.Since(start) < expOpTimeout)

		// T1's replies to the reader stay in transit (asynchrony, not a
		// crash: B2 alone uses the Byzantine budget b=1).
		for _, sid := range t1 {
			mc.Sim().Hold(sid, types.ReaderID(0))
		}
		rep := mc.Reader(0)
		// Sound thresholds: the evidence (1 × v1, 3 × ⊥) cannot make v1
		// safe, so the reader returns ⊥ — an older value than the
		// "completed" wr1. The over-eager implementation is not safe.
		m, err := weakRead(rep, s, paperTh, 1, expRoundTimeout, expOpTimeout)
		if err != nil {
			mc.Close()
			return nil, err
		}
		addRow("r3: sound reader after 'complete' write",
			"returns "+m.Returned.String()+" — misses the completed write (safeness broken)",
			m.Returned.IsBottom() && !m.TimedOut)

		// Weakened reader on the same picture returns v1: safeness holds
		// here — this is the acceptance rule the fast write forces.
		m2, err := weakRead(rep, s, weakTh, 2, expRoundTimeout, expOpTimeout)
		if err != nil {
			mc.Close()
			return nil, err
		}
		addRow("r3: weakened reader (safe=1)", "returns the written v1", m2.Returned == v1)
		mc.Close()
	}

	// ---- r4-analog: nothing was written; B1 forges. The weakened
	// reader accepts the forged singleton witness: safeness violated.
	{
		mc, err := buildRun(true)
		if err != nil {
			return nil, err
		}
		for _, sid := range t1 {
			mc.Sim().Hold(sid, types.ReaderID(0))
		}
		m, err := weakRead(mc.Reader(0), s, weakTh, 1, expRoundTimeout, expOpTimeout)
		mc.Close()
		if err != nil {
			return nil, err
		}
		addRow("r4: weakened reader, B1 forges, no write",
			"returns never-written "+m.Returned.String()+" — safeness violated", m.Returned == v1)
	}

	return &Result{
		ID:     "E7",
		Title:  "Fast-write upper bound (Proposition 4, Appendix B)",
		Claim:  "fw > t−b is untenable: the writer can be fast, but readers must then accept b-witness evidence, which forged states turn into a safeness violation (or they starve).",
		Tables: []*Table{table},
		Pass:   pass,
	}, nil
}
