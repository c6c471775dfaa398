package experiments

import (
	"fmt"

	"luckystore/internal/core"
	"luckystore/internal/fault"
	"luckystore/internal/workload"
)

// E1FastWrites reproduces Theorem 3: in the algorithm of Figures 1–3,
// a synchronous (= lucky, in the SWMR setting) WRITE completes in one
// communication round-trip whenever at most fw servers have failed by
// its completion — and falls back to the 3-round slow path beyond fw.
// Failures are injected both as crashes and as Byzantine-mute servers
// (the theorem's "all fw failures can be malicious, provided fw ≤ b").
func E1FastWrites() (*Result, error) {
	table := NewTable(
		"Lucky WRITE round-trips vs actual failures (S = 2t+b+1)",
		"t", "b", "fw", "failures", "kind", "rounds", "fast", "expected-fast", "ok")
	pass := true

	type scenario struct {
		t, b, fw int
	}
	scenarios := []scenario{
		{2, 1, 0}, {2, 1, 1},
		{2, 0, 0}, {2, 0, 1}, {2, 0, 2},
		{3, 1, 2},
	}
	for _, sc := range scenarios {
		for f := 0; f <= sc.t; f++ {
			kinds := []string{"crash"}
			if f > 0 && f <= sc.b {
				kinds = append(kinds, "byzantine-mute")
			}
			for _, kind := range kinds {
				rounds, fast, err := e1Measure(sc.t, sc.b, sc.fw, f, kind)
				if err != nil {
					return nil, fmt.Errorf("t=%d b=%d fw=%d f=%d %s: %w", sc.t, sc.b, sc.fw, f, kind, err)
				}
				expected := f <= sc.fw
				ok := fast == expected && (fast == (rounds == 1)) && (fast || rounds == 3)
				if !ok {
					pass = false
				}
				table.AddRow(
					Itoa(sc.t), Itoa(sc.b), Itoa(sc.fw),
					Itoa(f), kind, Itoa(rounds),
					Bool(fast), Bool(expected), Bool(ok))
			}
		}
	}

	return &Result{
		ID:     "E1",
		Title:  "Fast lucky WRITEs (Theorem 3)",
		Claim:  "Every synchronous WRITE is fast iff at most fw servers fail; slow WRITEs take exactly 3 round-trips.",
		Tables: []*Table{table},
		Pass:   pass,
	}, nil
}

func e1Measure(t, b, fw, f int, kind string) (rounds int, fast bool, err error) {
	cfg := core.Config{T: t, B: b, Fw: fw, NumReaders: 1, RoundTimeout: expRoundTimeout, OpTimeout: expOpTimeout}
	var opts []core.ClusterOption
	if kind == "byzantine-mute" {
		for i := 0; i < f; i++ {
			opts = append(opts, core.WithServerAutomaton(i, fault.Mute()))
		}
	}
	c, err := core.NewCluster(cfg, opts...)
	if err != nil {
		return 0, false, err
	}
	defer c.Close()
	if kind == "crash" {
		for i := 0; i < f; i++ {
			c.CrashServer(i)
		}
	}
	if err := c.Writer().Write(workload.Value(1, 0)); err != nil {
		return 0, false, err
	}
	m := c.Writer().LastMeta()
	return m.Rounds, m.Fast, nil
}
