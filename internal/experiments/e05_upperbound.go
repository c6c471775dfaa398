package experiments

import (
	"fmt"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/fault"
	"luckystore/internal/node"
	"luckystore/internal/types"
	"luckystore/internal/workload"
)

// E5UpperBound reproduces Proposition 2 and the indistinguishability
// runs of Figure 4 with t=2, b=1, S=6 and the over-budget split
// fw = fr = 1 (fw + fr = 2 > t − b = 1).
//
// Server blocks (one server each except T1): B1=s0, B2=s1, T1={s2,s3},
// Fw=s4, Fr=s5.
//
// Three measured runs:
//
//  1. run r2-analog — an implementation that wants every lucky READ
//     fast despite fr=1 failures on top of fw=1 must accept weakened
//     evidence (fast_pw at 2b+t = 4 instead of 2b+t+1, safe at 1
//     instead of b+1): with those thresholds the read IS fast where the
//     paper algorithm is not. This is the "forced weakening".
//  2. run r5-analog — the same weakened reader, but wr1 never happened
//     and B1 forges the state σ1: the reader returns a never-written
//     value. No-creation is violated, exactly as the proof constructs.
//  3. control — the paper's reader under the identical r5 schedule
//     refuses to decide while T1 is held and returns ⊥ once the network
//     heals: no violation.
func E5UpperBound() (*Result, error) {
	const (
		t, b = 2, 1
		s    = 2*t + b + 1 // 6
	)
	var (
		b1 = types.ServerID(0) // B2 = s1 stays honest in the runs below
		t1 = []types.ProcID{types.ServerID(2), types.ServerID(3)}
		fw = types.ServerID(4)
		fr = types.ServerID(5)
	)

	paperTh := core.Config{T: t, B: b, Fw: 1}.Thresholds()
	weakTh := paperTh
	weakTh.Safe = 1         // accept a single witness (b+1 would be 2)
	weakTh.FastPW = 2*b + t // 4: one short of the sound 2b+t+1
	weakTh.FastVW = 1

	table := NewTable(
		"Upper bound fw + fr ≤ t − b (Proposition 2; t=2, b=1, fw=fr=1)",
		"run", "reader", "returned", "rounds", "atomic", "ok")
	pass := true
	addRow := func(run, reader string, returned types.Tagged, rounds int, atomic, ok bool) {
		if !ok {
			pass = false
		}
		table.AddRow(run, reader, returned.String(), Itoa(rounds),
			Bool(atomic), Bool(ok))
	}

	// ---- Run r2-analog: the weakened reader achieves the over-budget
	// fast read (this is what forces weak thresholds on any such
	// implementation).
	{
		mc, err := newRawCluster(coreServers(s), 2)
		if err != nil {
			return nil, err
		}
		// Fw's PW stays in transit (run r1/r1′): the writer's fast write
		// completes on the other five.
		mc.Sim().Hold(types.WriterID(), fw)
		writer := core.NewWriter(core.Config{T: t, B: b, Fw: 1, RoundTimeout: expRoundTimeout, OpTimeout: expOpTimeout}, types.WriterID(), mc.Writer())
		if err := writer.Write(workload.Value(1, 0)); err != nil {
			mc.Close()
			return nil, err
		}
		if !writer.LastMeta().Fast {
			mc.Close()
			return nil, fmt.Errorf("r2: wr1 was not fast")
		}
		// Fr crashes at t1 (run r2): one actual failure during the read.
		mc.CrashServer(fr.Index())
		m, err := weakRead(mc.Reader(0), s, weakTh, 1, expRoundTimeout, expOpTimeout)
		if err != nil {
			mc.Close()
			return nil, err
		}
		wantV1 := types.Tagged{TS: 1, Val: workload.Value(1, 0)}
		addRow("r2 (write happened)", "weakened", m.Returned, m.Rounds,
			true, m.Returned == wantV1 && m.Rounds == 1)
		mc.Close()
	}

	// ---- Run r5-analog: wr1 never invoked; B1 forges σ1.
	forged := types.Tagged{TS: 1, Val: workload.Value(1, 0)}
	runR5 := func(readerKind string) (weakReadMeta, error) {
		automata := coreServers(s)
		automata[b1.Index()] = node.Automaton(fault.ForgeHighTS(forged.TS, forged.Val))
		mc, err := newRawCluster(automata, 2)
		if err != nil {
			return weakReadMeta{}, err
		}
		defer mc.Close()
		// T1's messages to the reader are delayed (asynchrony).
		for _, sid := range t1 {
			mc.Sim().Hold(sid, types.ReaderID(0))
		}
		th := weakTh
		if readerKind == "paper" {
			th = paperTh
		}
		// The paper reader cannot decide from the four unheld servers;
		// heal the network shortly after so it can terminate.
		var wait func()
		if readerKind == "paper" {
			wait = releaseAfter(mc.Sim(), 50*time.Millisecond)
		}
		m, err := weakRead(mc.Reader(0), s, th, 1, expRoundTimeout, expOpTimeout)
		if wait != nil {
			wait()
		}
		return m, err
	}

	// Weakened reader: returns the forged, never-written value.
	{
		m, err := runR5("weak")
		if err != nil {
			return nil, err
		}
		violated := m.Returned == forged
		addRow("r5 (no write, B1 forges σ1)", "weakened", m.Returned, m.Rounds,
			!violated, violated) // ok when the violation manifests
	}

	// Paper reader under the identical schedule: waits, then returns ⊥.
	{
		m, err := runR5("paper")
		if err != nil {
			return nil, err
		}
		addRow("r5 (no write, B1 forges σ1)", "paper", m.Returned, m.Rounds,
			m.Returned.IsBottom(), m.Returned.IsBottom() && !m.TimedOut)
	}

	return &Result{
		ID:     "E5",
		Title:  "Tight upper bound, read side (Proposition 2, Figure 4)",
		Claim:  "No optimally resilient implementation has fast lucky writes despite fw and fast lucky reads despite fr failures when fw+fr > t−b: the evidence a reader must then accept lets b malicious servers impose a never-written value.",
		Tables: []*Table{table},
		Pass:   pass,
		Notes: []string{
			"weakened thresholds: safe=1, fast_pw=2b+t — the minimum acceptance forced by requiring 1-round reads despite fr=1 on top of fw=1",
			"message kinds checked by wire.Validate in both runs: the forgery is structurally valid; only witness counting distinguishes the readers",
		},
	}, nil
}
