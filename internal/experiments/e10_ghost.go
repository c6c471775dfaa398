package experiments

import (
	"errors"
	"fmt"

	"luckystore/internal/core"
	"luckystore/internal/types"
	"luckystore/internal/workload"
)

// E10Ghost reproduces Theorem 13 (Appendix E, "contending with the
// ghost"): if the writer fails during an incomplete WRITE, then for
// every reader at most THREE synchronous READs invoked after the
// failure are slow — the system quickly restores its fast path even
// though, formally, every later read is "under contention" with the
// ghost write forever.
//
// The writer is crashed at each interesting point of the WRITE
// protocol; two readers then each issue a sequence of synchronous
// reads and the slow ones are counted.
func E10Ghost() (*Result, error) {
	table := NewTable(
		"Ghost contention (Theorem 13; t=2, b=1, fw=1, 2 readers × 6 reads)",
		"crash-point", "reader", "rounds-sequence", "slow-reads", "ok (≤3)")
	pass := true

	type point struct {
		name  string
		fault *core.WriteFault
	}
	all := types.ServerIDs(6)
	// The W-phase crash points need the write on the slow path first: a
	// PW that reaches only S−t = 4 servers gathers a quorum but misses
	// the S−fw = 5 fast threshold, so the writer enters the W phase.
	quorumOnly := all[:4]
	points := []point{
		{"after PW to b+1 servers", &core.WriteFault{
			PWTo: []types.ProcID{types.ServerID(0), types.ServerID(1)}, CrashAfterPW: true}},
		{"after PW to 1 server", &core.WriteFault{
			PWTo: []types.ProcID{types.ServerID(0)}, CrashAfterPW: true}},
		{"after full PW round", &core.WriteFault{PWTo: all, CrashAfterPW: true}},
		{"after partial W round 2", &core.WriteFault{
			PWTo:        quorumOnly,
			WTo:         map[int][]types.ProcID{2: {types.ServerID(0), types.ServerID(1)}},
			CrashAfterW: map[int]bool{2: true}}},
		{"after full W round 2", &core.WriteFault{
			PWTo: quorumOnly, WTo: map[int][]types.ProcID{2: all}, CrashAfterW: map[int]bool{2: true}}},
	}

	for _, p := range points {
		cfg := core.Config{T: 2, B: 1, Fw: 1, NumReaders: 2,
			RoundTimeout: expRoundTimeout, OpTimeout: expOpTimeout}
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		// A complete write first, then the ghost.
		if err := c.Writer().Write(workload.Value(1, 0)); err != nil {
			c.Close()
			return nil, err
		}
		if err := c.Writer().WriteWithFault(workload.Value(2, 0), p.fault); !errors.Is(err, core.ErrCrashed) {
			c.Close()
			return nil, fmt.Errorf("%s: fault write returned %v", p.name, err)
		}
		for r := 0; r < 2; r++ {
			seq := ""
			slow := 0
			for i := 0; i < 6; i++ {
				if _, err := c.Reader(r).Read(); err != nil {
					c.Close()
					return nil, fmt.Errorf("%s reader %d: %w", p.name, r, err)
				}
				m := c.Reader(r).LastMeta()
				if !m.Fast() {
					slow++
				}
				seq += fmt.Sprintf("%d ", m.Rounds())
			}
			ok := slow <= 3
			if !ok {
				pass = false
			}
			table.AddRow(p.name, fmt.Sprintf("r%d", r), seq, Itoa(slow), Bool(ok))
		}
		c.Close()
	}

	return &Result{
		ID:     "E10",
		Title:  "Contending with the ghost (Theorem 13, Appendix E)",
		Claim:  "After the writer fails mid-WRITE, at most three synchronous READs per reader are slow before the fast path is restored.",
		Tables: []*Table{table},
		Pass:   pass,
	}, nil
}
