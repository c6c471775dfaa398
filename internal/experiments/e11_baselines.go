package experiments

import (
	"fmt"
	"strings"
	"time"

	"luckystore/internal/abd"
	"luckystore/internal/core"
	"luckystore/internal/regular"
	"luckystore/internal/simnet"
	"luckystore/internal/twophase"
	"luckystore/internal/types"
	"luckystore/internal/workload"
)

// E11Baselines reproduces the Section 1/6 comparison: under best-case
// conditions (synchrony, no contention, no failures) the lucky
// algorithm reads AND writes in one round-trip, where ABD — the
// classical crash-only emulation the introduction cites — needs two
// round-trips for every read, and the Appendix C variant pays two
// rounds per write for its bounded worst case. Latencies are measured
// on a network with a 1 ms one-way link delay so that round-trips
// dominate; the ratio column is the measured mean latency normalised
// to the lucky READ's. Every protocol runs through the one register
// driver, and the round columns are the rounds its clients opened.
func E11Baselines() (*Result, error) {
	const (
		linkDelay = raceDelayFactor * time.Millisecond
		roundTO   = 2*linkDelay + 8*time.Millisecond
		nOps      = 12
	)
	table := NewTable(
		"Best-case comparison (t=2; 1 ms links; means over 12 ops)",
		"protocol", "S", "write-rounds", "read-rounds", "write-mean", "read-mean", "read-ratio-vs-lucky", "off-rounds", "ok")
	pass := true

	delay := simnet.WithDefaultDelay(linkDelay)
	lucky := core.Config{T: 2, B: 1, Fw: 1, NumReaders: 1, RoundTimeout: roundTO, OpTimeout: expOpTimeout}
	reg := regular.Config{T: 2, B: 1, NumReaders: 1, RoundTimeout: roundTO, OpTimeout: expOpTimeout}
	tp := twophase.Config{T: 2, B: 1, Fr: 1, NumReaders: 1, RoundTimeout: roundTO, OpTimeout: expOpTimeout}
	ab := abd.Config{T: 2, NumReaders: 1, OpTimeout: expOpTimeout}
	// Each protocol's deployment, its driver and its Close.
	protocols := []struct {
		name                   string
		s                      int
		wantWRounds, wantRRnds int
		open                   func() (workload.Driver, func(), error)
	}{
		// Lucky (core), fw=1: both ops 1 round.
		{"lucky (fw=1)", lucky.S(), 1, 1, func() (workload.Driver, func(), error) {
			sim, err := simnet.New(append(types.ServerIDs(lucky.S()), types.WriterID(), types.ReaderID(0)), delay)
			if err != nil {
				return nil, nil, err
			}
			c, err := core.NewCluster(lucky, core.WithNetwork(sim))
			if err != nil {
				return nil, nil, err
			}
			return workload.Register(c.Deployment), c.Close, nil
		}},
		// Regular variant: both 1 round at maximal thresholds.
		{"regular (App. D)", reg.S(), 1, 1, func() (workload.Driver, func(), error) {
			c, err := regular.NewCluster(reg, delay)
			if err != nil {
				return nil, nil, err
			}
			return workload.Register(c.Deployment), c.Close, nil
		}},
		// Two-phase variant: writes always 2 rounds, reads 1.
		{"two-phase (App. C)", tp.S(), 2, 1, func() (workload.Driver, func(), error) {
			c, err := twophase.NewCluster(tp, delay)
			if err != nil {
				return nil, nil, err
			}
			return workload.Register(c.Deployment), c.Close, nil
		}},
		// ABD baseline: writes 1 round, reads always 2.
		{"ABD (crash-only, b=0)", ab.S(), 1, 2, func() (workload.Driver, func(), error) {
			c, err := abd.NewCluster(ab, delay)
			if err != nil {
				return nil, nil, err
			}
			return workload.Register(c.Deployment), c.Close, nil
		}},
	}

	type measured struct {
		wMean, rMean time.Duration
		ops          []e11Op
	}
	rows := make([]measured, len(protocols))
	for i, p := range protocols {
		d, closeFn, err := p.open()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		m := &rows[i]
		m.wMean, m.rMean, m.ops, err = e11Drive(nOps, d)
		closeFn()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}

	var notes []string
	luckyRead := rows[0].rMean
	for i, p := range protocols {
		r := rows[i]
		ratio := float64(r.rMean) / float64(luckyRead)
		// Name every op that ran off its protocol's rounds, so a flake
		// says which op lost the timer race; the verdict reads the last
		// pair alone.
		var off []string
		for _, op := range r.ops {
			want := p.wantWRounds
			if op.kind == "read" {
				want = p.wantRRnds
			}
			if op.rounds != want {
				off = append(off, fmt.Sprintf("%s %d: %d rounds in %v", op.kind, op.i, op.rounds, op.latency.Round(10*time.Microsecond)))
			}
		}
		if len(off) > 0 {
			notes = append(notes, p.name+" ran off its rounds: "+strings.Join(off, "; "))
		}
		wRounds, rRounds := r.ops[len(r.ops)-2].rounds, r.ops[len(r.ops)-1].rounds
		ok := wRounds == p.wantWRounds && rRounds == p.wantRRnds
		// A two-round read must cost measurably more wall-clock than
		// the one-round lucky read. The theoretical gap is one full
		// round-trip (2 × linkDelay); requiring half of it keeps the
		// check robust to scheduler noise when the suite runs in
		// parallel.
		if p.wantRRnds == 2 {
			ok = ok && r.rMean >= luckyRead+linkDelay
		}
		if !ok {
			pass = false
		}
		table.AddRow(p.name, Itoa(p.s), Itoa(wRounds), Itoa(rRounds),
			r.wMean.Round(10*time.Microsecond).String(), r.rMean.Round(10*time.Microsecond).String(),
			fmt.Sprintf("%.2f", ratio), fmt.Sprintf("%d/%d", len(off), len(r.ops)), Bool(ok))
	}

	return &Result{
		ID:     "E11",
		Title:  "Best-case comparison vs baselines (Sections 1 and 6)",
		Claim:  "Lucky reads and writes take one round-trip where ABD reads take two; the two-phase variant pays two rounds per write; latency scales with round-trips.",
		Tables: []*Table{table},
		Pass:   pass,
		Notes:  notes,
	}, nil
}

// e11Op is one timed operation of e11Drive: pair i's write or read,
// the rounds its client reported, and its latency.
type e11Op struct {
	kind    string // "write" or "read"
	i       int
	rounds  int
	latency time.Duration
}

// e11Drive alternates writes and reads through d, returning mean
// latencies and every op in order.
func e11Drive(n int, d workload.Driver) (wMean, rMean time.Duration, ops []e11Op, err error) {
	for i := 1; i <= n; i++ {
		start := time.Now()
		_, w, err := d.Write(0, "", workload.Value(i, 0))
		if err != nil {
			return 0, 0, nil, err
		}
		ops = append(ops, e11Op{"write", i, w.Rounds, time.Since(start)})
		wMean += ops[len(ops)-1].latency

		start = time.Now()
		_, r, err := d.Read(0, "")
		if err != nil {
			return 0, 0, nil, err
		}
		ops = append(ops, e11Op{"read", i, r.Rounds, time.Since(start)})
		rMean += ops[len(ops)-1].latency
	}
	return wMean / time.Duration(n), rMean / time.Duration(n), ops, nil
}
