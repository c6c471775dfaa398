package experiments

import (
	"fmt"

	"luckystore/internal/core"
	"luckystore/internal/types"
	"luckystore/internal/workload"
)

// E14MWReads verifies the reader's and the servers' side of the
// multi-writer extension: a READ after contending writers settles on
// the pair with the highest ⟨seq, writer⟩ stamp in the usual one
// round-trip, the stamp's writer component is threaded through server
// state verbatim, and per-key server state stays bounded — three
// tagged pairs plus per-reader slots, nothing per writer (the paper's
// space-bounds property, Theorem 2, extended to the MW setting).
func E14MWReads() (*Result, error) {
	table := NewTable(
		"READ and server state vs writer identities (t=2, b=1, fw=1, S=6, 12 round-robin writes)",
		"writers", "read-rounds", "fast", "read-stamp", "server-pw", "frozen-slots", "readerTS-slots", "ok")
	pass := true
	const nOps = 12

	for _, writers := range []int{1, 2, 4} {
		cfg := core.Config{T: 2, B: 1, Fw: 1, NumReaders: 2, Writers: writers,
			RoundTimeout: expRoundTimeout, OpTimeout: expOpTimeout}
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}

		var last types.Tagged
		for i := 0; i < nOps; i++ {
			w := c.WriterN(i % writers)
			v := workload.WriterValue(i%writers, i, 0)
			if err := w.Write(v); err != nil {
				c.Close()
				return nil, err
			}
			last = w.LastMeta().Value(v)
		}

		got, err := c.Reader(0).Read()
		if err != nil {
			c.Close()
			return nil, err
		}
		rm := c.Reader(0).LastMeta()
		rowOK := got == last && rm.Rounds() == 1 && rm.Fast()

		// Server state: every server's pw pair carries the last stamp
		// with its writer component intact, and no server grew a slot
		// per writer — the per-reader maps stay empty without slow
		// reads, whatever the writer count.
		maxFrozen, maxReaderTS := 0, 0
		pwAgree := true
		for i := 0; i < cfg.S(); i++ {
			s := c.ServerAutomaton(i).(*core.Server)
			pw, _, _ := s.State()
			if pw.Stamp() != last.Stamp() {
				pwAgree = false
			}
			f, r := s.StateSize()
			maxFrozen = max(maxFrozen, f)
			maxReaderTS = max(maxReaderTS, r)
		}
		c.Close()
		rowOK = rowOK && pwAgree && maxFrozen == 0 && maxReaderTS == 0
		if !rowOK {
			pass = false
		}
		table.AddRow(Itoa(writers), Itoa(rm.Rounds()), Bool(rm.Fast()),
			fmt.Sprintf("%v", got.Stamp()), fmt.Sprintf("%v", last.Stamp()),
			Itoa(maxFrozen), Itoa(maxReaderTS), Bool(rowOK))
	}

	return &Result{
		ID:     "E14",
		Title:  "Multi-writer READs and bounded server state",
		Claim:  "A READ returns the pair with the highest ⟨seq, writer⟩ stamp in one round-trip; server state holds the full stamp verbatim and stays bounded — per-reader slots only, nothing per writer.",
		Tables: []*Table{table},
		Pass:   pass,
	}, nil
}
