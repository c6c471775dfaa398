package experiments

import (
	"fmt"
	"sync"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/core"
	"luckystore/internal/fault"
	"luckystore/internal/regular"
	"luckystore/internal/types"
	"luckystore/internal/workload"
)

// E9Regular reproduces Proposition 7 (Appendix D): trading atomicity
// for regularity buys (1) tolerance of malicious readers and (2) the
// maximal fast thresholds fw = t − b and fr = t simultaneously.
//
// The experiment runs the same forged write-back attack against the
// atomic variant (where it succeeds — the Section 5 discussion) and the
// regular variant (where servers ignore reader W messages and the
// attack dies), then measures the regular variant's fast paths and
// checks regularity under concurrency.
func E9Regular() (*Result, error) {
	table := NewTable(
		"Regular variant (Appendix D; t=2, b=1, S=6)",
		"check", "observation", "ok")
	pass := true
	addRow := func(check, obs string, ok bool) {
		if !ok {
			pass = false
		}
		table.AddRow(check, obs, Bool(ok))
	}
	forged := types.Tagged{TS: 2, Val: "never-written"}

	// ---- Attack on the atomic variant: succeeds (documented
	// vulnerability).
	{
		cfg := core.Config{T: 2, B: 1, Fw: 1, NumReaders: 2,
			RoundTimeout: expRoundTimeout, OpTimeout: expOpTimeout}
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		if err := c.Writer().Write(workload.Value(1, 0)); err != nil {
			c.Close()
			return nil, err
		}
		ep, err := c.Sim().Endpoint(types.ReaderID(1))
		if err != nil {
			c.Close()
			return nil, err
		}
		if err := fault.MaliciousReaderWriteback(ep, types.ServerIDs(cfg.S()), cfg.Quorum(), 1, forged); err != nil {
			c.Close()
			return nil, err
		}
		got, err := c.Reader(0).Read()
		c.Close()
		if err != nil {
			return nil, err
		}
		addRow("atomic variant under forged write-back",
			fmt.Sprintf("correct reader returned %v (no-creation broken)", got), got == forged)
	}

	// ---- Attack on the regular variant: defeated.
	{
		cfg := regular.Config{T: 2, B: 1, NumReaders: 2,
			RoundTimeout: expRoundTimeout, OpTimeout: expOpTimeout}
		c, err := regular.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		if err := c.Writer().Write(workload.Value(1, 0)); err != nil {
			c.Close()
			return nil, err
		}
		ep, err := c.Sim().Endpoint(types.ReaderID(1))
		if err != nil {
			c.Close()
			return nil, err
		}
		// Servers won't ack reader W messages, so fire without a quorum.
		if err := fault.MaliciousReaderWriteback(ep, types.ServerIDs(cfg.S()), 0, 1, forged); err != nil {
			c.Close()
			return nil, err
		}
		time.Sleep(20 * time.Millisecond) // let the forged messages be dropped
		got, err := c.Reader(0).Read()
		if err != nil {
			c.Close()
			return nil, err
		}
		addRow("regular variant under forged write-back",
			fmt.Sprintf("correct reader returned %v", got),
			got == types.Tagged{TS: 1, Val: workload.Value(1, 0)})

		// ---- Fast thresholds at their maximum.
		c.CrashServer(0) // fw = t−b = 1 failures
		if err := c.Writer().Write(workload.Value(2, 0)); err != nil {
			c.Close()
			return nil, err
		}
		addRow("lucky WRITE fast despite fw = t−b failures",
			fmt.Sprintf("rounds=%d", c.Writer().LastMeta().Rounds), c.Writer().LastMeta().Fast)

		c.CrashServer(1) // fr = t = 2 failures
		if _, err := c.Reader(0).Read(); err != nil {
			c.Close()
			return nil, err
		}
		m := c.Reader(0).LastMeta()
		addRow("lucky READ fast despite fr = t failures",
			fmt.Sprintf("rounds=%d", m.Rounds()), m.Fast())
		c.Close()
	}

	// ---- Regularity under concurrency.
	{
		cfg := regular.Config{T: 2, B: 1, NumReaders: 3,
			RoundTimeout: 5 * time.Millisecond, OpTimeout: expOpTimeout}
		c, err := regular.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		rec := checker.NewRecorder()
		var wg sync.WaitGroup
		var firstErr error
		var errOnce sync.Once
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 40; i++ {
				v := workload.Value(i, 0)
				inv := time.Now()
				if err := c.Writer().Write(v); err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				m := c.Writer().LastMeta()
				rec.Add(checker.Op{Client: types.WriterID(), Kind: checker.KindWrite,
					Value: types.Tagged{TS: m.TS, Val: v}, Invoke: inv, Return: time.Now(),
					Rounds: m.Rounds, Fast: m.Fast})
			}
		}()
		for r := 0; r < cfg.NumReaders; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					inv := time.Now()
					got, err := c.Reader(r).Read()
					if err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
					m := c.Reader(r).LastMeta()
					rec.Add(checker.Op{Client: types.ReaderID(r), Kind: checker.KindRead,
						Value: got, Invoke: inv, Return: time.Now(),
						Rounds: m.Rounds(), Fast: m.Fast()})
				}
			}()
		}
		wg.Wait()
		c.Close()
		if firstErr != nil {
			return nil, firstErr
		}
		vs := checker.CheckRegularity(rec.Ops())
		addRow("regularity under concurrent workload",
			fmt.Sprintf("%d ops, %d violations", len(rec.Ops()), len(vs)), len(vs) == 0)
	}

	return &Result{
		ID:     "E9",
		Title:  "Regularity vs atomicity (Proposition 7, Appendix D)",
		Claim:  "The regular variant tolerates malicious readers and achieves fw = t−b, fr = t, while the atomic variant is corrupted by a forged reader write-back.",
		Tables: []*Table{table},
		Pass:   pass,
	}, nil
}
