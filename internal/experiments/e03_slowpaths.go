package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/core"
	"luckystore/internal/types"
	"luckystore/internal/workload"
)

// E3SlowPaths measures the worst-case round-trip complexity of Section
// 3.1: a slow WRITE takes exactly three round-trips (PW + two W
// rounds), and a slow READ takes its query rounds plus the three-round
// write-back. Slowness is induced three ways: too many failures for the
// write, too many failures for the read, and read/write contention.
func E3SlowPaths() (*Result, error) {
	table := NewTable(
		"Slow-path round-trips (t=2, b=1, fw=1, S=6)",
		"scenario", "op", "rounds", "wrote-back", "ok")
	pass := true
	addRow := func(scenario, op string, rounds int, wroteBack, ok bool) {
		if !ok {
			pass = false
		}
		table.AddRow(scenario, op, Itoa(rounds), Bool(wroteBack), Bool(ok))
	}

	cfg := core.Config{T: 2, B: 1, Fw: 1, NumReaders: 2, RoundTimeout: expRoundTimeout, OpTimeout: expOpTimeout}

	// Scenario 1: fw+1 crashes → slow write, exactly 3 rounds.
	{
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		c.CrashServer(0)
		c.CrashServer(1)
		if err := c.Writer().Write(workload.Value(1, 0)); err != nil {
			c.Close()
			return nil, err
		}
		m := c.Writer().LastMeta()
		addRow("fw+1 crashes", "WRITE", m.Rounds, false, m.Rounds == 3 && !m.Fast)

		// Scenario 2: the same failures exceed fr=0 → the read is slow:
		// the vw fields are populated (slow write), but the pw picture
		// still forces a write-back in some runs; assert only the
		// counted round accounting (query + 3 on write-back).
		if _, err := c.Reader(0).Read(); err != nil {
			c.Close()
			return nil, err
		}
		rm := c.Reader(0).LastMeta()
		okAccounting := rm.Rounds() == rm.QueryRounds+writeBackRounds(rm)
		addRow("read after slow write, 2 crashes", "READ", rm.Rounds(), rm.WroteBack, okAccounting)
		c.Close()
	}

	// Scenario 3: contention — a READ overlapping an in-progress WRITE
	// adopts the pre-written value and must write it back (3 extra
	// rounds).
	{
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		if err := c.Writer().Write(workload.Value(1, 0)); err != nil {
			c.Close()
			return nil, err
		}
		sim := c.Sim()
		for i := 2; i < cfg.S(); i++ {
			sim.Hold(types.WriterID(), types.ServerID(i))
		}
		writeDone := make(chan error, 1)
		go func() { writeDone <- c.Writer().Write(workload.Value(2, 0)) }()
		// Wait until the partial pre-write has landed at s0.
		landed := false
		for start := time.Now(); time.Since(start) < time.Second; {
			if srv, ok := c.ServerAutomaton(0).(*core.Server); ok {
				if pw, _, _ := srv.State(); pw.TS == 2 {
					landed = true
					break
				}
			}
			time.Sleep(time.Millisecond)
		}
		if !landed {
			sim.ReleaseAll()
			<-writeDone
			c.Close()
			return nil, fmt.Errorf("contention scenario: pre-write never landed")
		}
		got, err := c.Reader(0).Read()
		if err != nil {
			sim.ReleaseAll()
			<-writeDone
			c.Close()
			return nil, err
		}
		rm := c.Reader(0).LastMeta()
		addRow("contention with in-progress write", "READ", rm.Rounds(),
			rm.WroteBack, rm.WroteBack && rm.Rounds() == rm.QueryRounds+writeBackRounds(rm) && got.TS == 2)
		sim.ReleaseAll()
		if err := <-writeDone; err != nil {
			c.Close()
			return nil, err
		}
		c.Close()
	}

	// Scenario 4: a mixed concurrent workload stays atomic and its round
	// distribution is reported.
	distTable := NewTable(
		"Round distribution, mixed workload (40 writes, 3×25 reads, no failures)",
		"op", "distribution", "fast-fraction")
	var notes []string
	{
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		rec, err := workload.Mixed{Writes: 40, ReadsPerReader: 25}.RunDriver(workload.Register(c.Deployment))
		c.Close()
		if err != nil {
			return nil, err
		}
		if vs := checker.CheckAtomicity(rec.Ops()); len(vs) != 0 {
			pass = false
			notes = append(notes, fmt.Sprintf("atomicity violations under contention: %v", vs))
		}
		w, r := workload.RoundStats(rec.Ops())
		wd, wf := roundDist(w)
		rd, rf := roundDist(r)
		distTable.AddRow("WRITE", wd, wf)
		distTable.AddRow("READ", rd, rf)
	}

	return &Result{
		ID:     "E3",
		Title:  "Worst-case complexity (Section 3.1)",
		Claim:  "Slow WRITE = 3 round-trips; slow READ = query rounds + 3-round write-back; atomicity holds under contention.",
		Tables: []*Table{table, distTable},
		Pass:   pass,
		Notes:  notes,
	}, nil
}

// roundDist renders a round histogram (workload.RoundStats) compactly,
// e.g. "1r:47 3r:3", with its share of 1-round operations.
func roundDist(d map[int]int) (hist, fastFrac string) {
	if len(d) == 0 {
		return "(empty)", "0.00"
	}
	var parts []string
	total := 0
	for _, r := range slices.Sorted(maps.Keys(d)) {
		parts = append(parts, fmt.Sprintf("%dr:%d", r, d[r]))
		total += d[r]
	}
	return strings.Join(parts, " "), fmt.Sprintf("%.2f", float64(d[1])/float64(total))
}

// writeBackRounds is the write-back a core READ of meta m owes: the
// three rounds of Fig. 2 lines 26–28 when it wrote back, none
// otherwise.
func writeBackRounds(m core.ReadMeta) int {
	if m.WroteBack {
		return 3
	}
	return 0
}
