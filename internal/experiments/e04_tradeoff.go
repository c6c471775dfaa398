package experiments

import (
	"fmt"

	"luckystore/internal/core"
	"luckystore/internal/workload"
)

// E4Tradeoff reproduces Proposition 1's trade-off line fw + fr = t − b:
// for every configuration and every split of the budget, lucky writes
// are fast despite fw failures, lucky reads are fast despite fr further
// failures, and one failure beyond the read budget breaks the fast
// read (showing the thresholds are exact, not slack).
func E4Tradeoff() (*Result, error) {
	table := NewTable(
		"The fw + fr = t − b trade-off (Proposition 1)",
		"t", "b", "S", "fw", "fr", "write-fast@fw", "read-fast@fr", "read-slow@fr+1", "ok")
	pass := true

	type config struct{ t, b int }
	configs := []config{{1, 0}, {2, 0}, {2, 1}, {3, 1}, {3, 2}, {4, 2}}
	for _, cc := range configs {
		budget := cc.t - cc.b
		for fw := 0; fw <= budget; fw++ {
			fr := budget - fw
			writeFast, readFast, beyondSlow, err := e4Measure(cc.t, cc.b, fw, fr)
			if err != nil {
				return nil, fmt.Errorf("t=%d b=%d fw=%d: %w", cc.t, cc.b, fw, err)
			}
			ok := writeFast && readFast && beyondSlow
			if !ok {
				pass = false
			}
			table.AddRow(
				Itoa(cc.t), Itoa(cc.b), Itoa(2*cc.t+cc.b+1),
				Itoa(fw), Itoa(fr),
				Bool(writeFast), Bool(readFast), Bool(beyondSlow),
				Bool(ok))
		}
	}

	return &Result{
		ID:     "E4",
		Title:  "Resilience trade-off sweep (Proposition 1)",
		Claim:  "Every split fw + fr = t − b works, and the thresholds are exact: one extra failure past fr breaks the fast read.",
		Tables: []*Table{table},
		Pass:   pass,
	}, nil
}

// e4Measure crashes fw servers, writes (expecting the fast path),
// crashes fr more, reads (expecting fast), then — when the budget
// allows one more crash within t — crashes one extra server and
// verifies the next lucky read after a fresh fast write is slow.
func e4Measure(t, b, fw, fr int) (writeFast, readFast, beyondSlow bool, err error) {
	cfg := core.Config{T: t, B: b, Fw: fw, NumReaders: 1, RoundTimeout: expRoundTimeout, OpTimeout: expOpTimeout}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return false, false, false, err
	}
	defer c.Close()

	crashed := 0
	for ; crashed < fw; crashed++ {
		c.CrashServer(crashed)
	}
	if err := c.Writer().Write(workload.Value(1, 0)); err != nil {
		return false, false, false, err
	}
	writeFast = c.Writer().LastMeta().Fast

	for ; crashed < fw+fr; crashed++ {
		c.CrashServer(crashed)
	}
	if _, err := c.Reader(0).Read(); err != nil {
		return false, false, false, err
	}
	readFast = c.Reader(0).LastMeta().Fast()

	// Exactness: one more failure (still ≤ t in total) must defeat the
	// fast read. The preceding write was fast, so only the pw fields
	// carry the value (the fast reads above did not write back); with
	// fw+fr+1 failures only S−fw−fr−1 = 2b+t of those survive — one
	// short of the fast_pw threshold — so the next read must be slow.
	// When fw+fr = t already, the model forbids the extra crash and
	// exactness is vacuously satisfied.
	if fw+fr+1 > t || !writeFast || !readFast {
		return writeFast, readFast, true, nil
	}
	c.CrashServer(crashed)
	if _, err := c.Reader(0).Read(); err != nil {
		return false, false, false, err
	}
	beyondSlow = !c.Reader(0).LastMeta().Fast()
	return writeFast, readFast, beyondSlow, nil
}
