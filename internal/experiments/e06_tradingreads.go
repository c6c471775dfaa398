package experiments

import (
	"fmt"

	"luckystore/internal/core"
	"luckystore/internal/workload"
)

// E6TradingReads reproduces Proposition 3 / Theorem 5 (Appendix A):
// running the very same algorithm with the maximal fast-write budget
// fw = t − b lifts the read resilience to fr = t, at the price that in
// any sequence of consecutive lucky READs at most ONE may be slow —
// intuitively, that single slow read "finishes" the preceding fast
// write by writing its value back.
func E6TradingReads() (*Result, error) {
	table := NewTable(
		"Trading (few) reads: fw = t−b, fr = t (Proposition 3; t=2, b=1)",
		"scenario", "failures", "sequence-rounds", "slow-reads", "ok (≤1 slow)")
	pass := true
	addRow := func(scenario string, failures int, seq string, slow int, ok bool) {
		if !ok {
			pass = false
		}
		table.AddRow(scenario, Itoa(failures), seq, Itoa(slow), Bool(ok))
	}

	const seqLen = 6
	cfg := core.Config{T: 2, B: 1, Fw: 1 /* = t−b */, NumReaders: 2,
		RoundTimeout: expRoundTimeout, OpTimeout: expOpTimeout}

	// Scenario A: fast write survives fw failures, then fr = t total
	// failures hit before a sequence of consecutive lucky reads. The
	// fast write's value sits in only S−fw−t = 2b+t = 4−1... — below
	// the fast_pw threshold — so exactly the first read is slow (it
	// writes back), and every subsequent read in the sequence is fast.
	{
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		c.CrashServer(0) // fw = 1 failure before the write
		if err := c.Writer().Write(workload.Value(1, 0)); err != nil {
			c.Close()
			return nil, err
		}
		if !c.Writer().LastMeta().Fast {
			c.Close()
			return nil, fmt.Errorf("scenario A: write not fast")
		}
		c.CrashServer(1) // now t = 2 = fr total failures
		seq, slow, err := e6ReadSequence(c, seqLen)
		c.Close()
		if err != nil {
			return nil, err
		}
		addRow("after FAST write", 2, seq, slow, slow <= 1)
	}

	// Scenario B: the preceding write was slow (it completed all three
	// rounds), so its value is already in the vw fields: every read of
	// the sequence is fast even with fr = t failures.
	{
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		c.CrashServer(0)
		c.CrashServer(1) // fw+1 failures: the write takes the slow path
		if err := c.Writer().Write(workload.Value(1, 0)); err != nil {
			c.Close()
			return nil, err
		}
		if c.Writer().LastMeta().Fast {
			c.Close()
			return nil, fmt.Errorf("scenario B: write unexpectedly fast")
		}
		seq, slow, err := e6ReadSequence(c, seqLen)
		c.Close()
		if err != nil {
			return nil, err
		}
		addRow("after SLOW write", 2, seq, slow, slow == 0)
	}

	// Scenario C: alternating readers — the single write-back performed
	// by whichever reader goes first serves every other reader too.
	{
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		c.CrashServer(0)
		if err := c.Writer().Write(workload.Value(1, 0)); err != nil {
			c.Close()
			return nil, err
		}
		c.CrashServer(1)
		seqStr := ""
		slow := 0
		for i := 0; i < seqLen; i++ {
			rd := c.Reader(i % 2)
			if _, err := rd.Read(); err != nil {
				c.Close()
				return nil, err
			}
			m := rd.LastMeta()
			if !m.Fast() {
				slow++
			}
			seqStr += fmt.Sprintf("%d ", m.Rounds())
		}
		c.Close()
		addRow("alternating readers", 2, seqStr, slow, slow <= 1)
	}

	return &Result{
		ID:     "E6",
		Title:  "Trading (few) reads (Proposition 3 / Theorem 5)",
		Claim:  "With fw = t−b, any sequence of consecutive lucky READs contains at most one slow READ, despite up to fr = t failures.",
		Tables: []*Table{table},
		Pass:   pass,
	}, nil
}

// e6ReadSequence performs n consecutive lucky reads on reader 0 and
// reports the round counts and the number of slow reads.
func e6ReadSequence(c *core.Cluster, n int) (seq string, slow int, err error) {
	for i := 0; i < n; i++ {
		if _, err := c.Reader(0).Read(); err != nil {
			return "", 0, err
		}
		m := c.Reader(0).LastMeta()
		if !m.Fast() {
			slow++
		}
		seq += fmt.Sprintf("%d ", m.Rounds())
	}
	return seq, slow, nil
}
