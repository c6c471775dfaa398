package experiments

import (
	"fmt"

	"luckystore/internal/core"
	"luckystore/internal/workload"
)

// E2FastReads reproduces Theorem 4: a lucky READ is fast whenever at
// most fr = t − b − fw servers have failed by its completion, whether
// the preceding WRITE was fast (the fast_pw path, witnesses in the pw
// fields of 2b+t+1 correct servers) or slow (the fast_vw path,
// witnesses in the vw fields of b+1 correct servers).
func E2FastReads() (*Result, error) {
	table := NewTable(
		"Lucky READ round-trips vs actual failures",
		"t", "b", "fw", "fr", "prior-write", "failures", "rounds", "fast", "expected-fast", "ok")
	pass := true

	type scenario struct {
		t, b, fw  int
		slowWrite bool // force the preceding write onto the slow path
	}
	scenarios := []scenario{
		{2, 1, 1, false}, // fr = 0: fast read only with zero failures
		{2, 1, 0, false}, // fr = 1 after a fast write
		{2, 1, 0, true},  // fr = 1 after a slow write (fast_vw path)
		{2, 0, 0, false}, // fr = 2, crash-only deployment
		{2, 0, 0, true},
		{3, 1, 1, false}, // fr = 1 at larger scale
	}
	for _, sc := range scenarios {
		fr := sc.t - sc.b - sc.fw
		for f := 0; f <= sc.t; f++ {
			if sc.slowWrite && f > fr {
				// Forcing a slow write already burns fw+1 failures; the
				// remaining budget cannot exceed fr, so skip.
				continue
			}
			rounds, fast, err := e2Measure(sc.t, sc.b, sc.fw, f, sc.slowWrite)
			if err != nil {
				return nil, fmt.Errorf("t=%d b=%d fw=%d f=%d slow=%v: %w", sc.t, sc.b, sc.fw, f, sc.slowWrite, err)
			}
			expected := f <= fr
			// Beyond fr the theorem is silent: the read may or may not
			// be fast, so only the ≤fr side is checked.
			ok := !expected || fast
			if !ok {
				pass = false
			}
			prior := "fast"
			if sc.slowWrite {
				prior = "slow"
			}
			table.AddRow(
				Itoa(sc.t), Itoa(sc.b), Itoa(sc.fw), Itoa(fr),
				prior, Itoa(f), Itoa(rounds),
				Bool(fast), Bool(expected), Bool(ok))
		}
	}

	return &Result{
		ID:     "E2",
		Title:  "Fast lucky READs (Theorem 4)",
		Claim:  "Every lucky READ is fast despite at most fr = t−b−fw failures, after fast and slow preceding WRITEs alike.",
		Tables: []*Table{table},
		Pass:   pass,
	}, nil
}

// e2Measure runs: [optionally crash fw+1 to force a slow write] →
// write → crash up to f total → lucky read; returns the read's rounds.
func e2Measure(t, b, fw, f int, slowWrite bool) (rounds int, fast bool, err error) {
	cfg := core.Config{T: t, B: b, Fw: fw, NumReaders: 1, RoundTimeout: expRoundTimeout, OpTimeout: expOpTimeout}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return 0, false, err
	}
	defer c.Close()

	crashed := 0
	if slowWrite {
		// fw+1 failures before the write push it onto the slow path.
		for crashed < fw+1 {
			c.CrashServer(crashed)
			crashed++
		}
	}
	if err := c.Writer().Write(workload.Value(1, 0)); err != nil {
		return 0, false, err
	}
	if slowWrite == c.Writer().LastMeta().Fast {
		return 0, false, fmt.Errorf("write path mismatch: wanted slow=%v, got meta %+v", slowWrite, c.Writer().LastMeta())
	}
	// Bring total failures up to f before the read.
	for crashed < f {
		c.CrashServer(crashed)
		crashed++
	}
	if _, err := c.Reader(0).Read(); err != nil {
		return 0, false, err
	}
	m := c.Reader(0).LastMeta()
	return m.Rounds(), m.Fast(), nil
}
