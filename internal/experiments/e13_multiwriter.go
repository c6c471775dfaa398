package experiments

import (
	"fmt"

	"luckystore/internal/core"
	"luckystore/internal/types"
	"luckystore/internal/wire"
	"luckystore/internal/workload"
)

// E13MultiWriter measures the cost model of the multi-writer extension:
// a single-writer WRITE is one round-trip (2S messages, the published
// Fig. 1 fast path, byte for byte), while a multi-writer WRITE pays
// exactly one stamp-query round on top — two round-trips, 4S messages —
// and stays "fast" in the protocol sense (no W-phase fallback). The
// query is what makes round-robin writers bind strictly increasing
// ⟨seq, writer⟩ stamps; the PW_ACK.Max channel flags contention when a
// server already holds a higher stamp.
func E13MultiWriter() (*Result, error) {
	table := NewTable(
		"WRITE rounds and messages vs writer identities (t=2, b=1, fw=1, S=6, sequential round-robin)",
		"writers", "rounds", "fast", "queried", "msgs/write", "stamps", "ok")
	pass := true
	const nOps = 12

	for _, writers := range []int{1, 2, 3} {
		// NoSpec pins the pre-§12 regime this experiment measures: every
		// MW write pays the query round unconditionally. E16 measures
		// the adaptive speculative path against this baseline.
		cfg := core.Config{T: 2, B: 1, Fw: 1, NumReaders: 1, Writers: writers, NoSpec: true,
			RoundTimeout: expRoundTimeout, OpTimeout: expOpTimeout}
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		sim := c.Sim()

		wantRounds := 1
		if writers > 1 {
			wantRounds = 2
		}
		before := sim.StatsSnapshot()
		var last types.Stamp
		rowOK := true
		for i := 0; i < nOps; i++ {
			w := c.WriterN(i % writers)
			if err := w.Write(workload.WriterValue(i%writers, i, 0)); err != nil {
				c.Close()
				return nil, err
			}
			m := w.LastMeta()
			if m.Rounds != wantRounds || !m.Fast || m.Queried != (writers > 1) {
				rowOK = false
			}
			// Round-robin, sequential: every write's query (or solo
			// counter) must bind strictly above the previous stamp, with
			// the binding writer's own component.
			st := m.Stamp()
			if !last.Less(st) || st.Writer != types.WID(i%writers) {
				rowOK = false
			}
			last = st
		}
		after := sim.StatsSnapshot()
		c.Close()

		// Message accounting: PW round = S PW + S PW_ACK; the MW query
		// adds S READ + S READ_ACK. No reader ran, so every READ here is
		// a writer query.
		delta := func(k wire.Kind) int { return after.ByKind[k] - before.ByKind[k] }
		msgsPerWrite := float64(delta(wire.KindPW)+delta(wire.KindPWAck)+
			delta(wire.KindRead)+delta(wire.KindReadAck)) / nOps
		if msgsPerWrite != float64(2*wantRounds*cfg.S()) {
			rowOK = false
		}
		if !rowOK {
			pass = false
		}
		table.AddRow(Itoa(writers), Itoa(wantRounds),
			Bool(true), Bool(writers > 1),
			fmt.Sprintf("%.1f", msgsPerWrite), "strictly-increasing",
			Bool(rowOK))
	}

	// Contention telemetry. The stamp query makes an ordinary MW write
	// resolve any installed stamp *before* binding — written above it,
	// Contended stays false even when the servers held 〈50.5〉 — so the
	// first two rows pin the query's conflict-resolution. The channel
	// that does fire is PW_ACK.Max on the query-less handoff path:
	// WriteAt replays a migrated pair verbatim, and when the destination
	// already advanced past it the replay completes idempotently with
	// Contended reporting the race instead of silently masking it.
	cTable := NewTable(
		"Contention telemetry (Writers=2, servers later hold installed stamp 〈50.5〉)",
		"phase", "contended", "stamp", "ok")
	{
		cfg := core.Config{T: 2, B: 1, Fw: 1, NumReaders: 0, Writers: 2, NoSpec: true,
			RoundTimeout: expRoundTimeout, OpTimeout: expOpTimeout}
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		if err := c.WriterN(0).Write("calm"); err != nil {
			c.Close()
			return nil, err
		}
		m := c.WriterN(0).LastMeta()
		calmOK := !m.Contended
		cTable.AddRow("uncontended", Bool(m.Contended),
			fmt.Sprintf("%v", m.Stamp()), Bool(calmOK))

		installed := types.Tagged{TS: 50, W: 5, Val: "raced"}
		for i := 0; i < cfg.S(); i++ {
			c.ServerAutomaton(i).(*core.Server).InjectState(installed, installed, installed)
		}
		if err := c.WriterN(1).Write("mine"); err != nil {
			c.Close()
			return nil, err
		}
		m = c.WriterN(1).LastMeta()
		queryOK := !m.Contended && m.Stamp() == (types.Stamp{Seq: 51, Writer: 1})
		cTable.AddRow("query-resolves-installed", Bool(m.Contended),
			fmt.Sprintf("%v", m.Stamp()), Bool(queryOK))

		// Handoff replay of a pair the destination has already passed:
		// no query, exact foreign stamp, race detected via PW_ACK.Max.
		if err := c.WriterN(0).WriteAt(types.Tagged{TS: 2, W: 7, Val: "migrated"}); err != nil {
			c.Close()
			return nil, err
		}
		m = c.WriterN(0).LastMeta()
		c.Close()
		replayOK := m.Contended && m.Stamp() == (types.Stamp{Seq: 2, Writer: 7})
		cTable.AddRow("handoff-behind-destination", Bool(m.Contended),
			fmt.Sprintf("%v", m.Stamp()), Bool(replayOK))
		if !calmOK || !queryOK || !replayOK {
			pass = false
		}
	}

	return &Result{
		ID:     "E13",
		Title:  "Multi-writer WRITE cost: one query round on top of Fig. 1",
		Claim:  "A multi-writer WRITE is the published one-round fast write plus exactly one stamp-query round (2 round-trips, 4S messages); single-writer deployments keep the 1-round, 2S path byte for byte, and contention is detected, never lost.",
		Tables: []*Table{table, cTable},
		Pass:   pass,
	}, nil
}
