package experiments

import (
	"fmt"
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
		"protocol", "S", "write-rounds", "read-rounds", "write-mean", "read-mean", "read-ratio-vs-lucky", "ok")
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
		wMean, rMean     time.Duration
		wRounds, rRounds int
	}
	rows := make([]measured, len(protocols))
	for i, p := range protocols {
		d, closeFn, err := p.open()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		m := &rows[i]
		m.wMean, m.rMean, m.wRounds, m.rRounds, err = e11Drive(nOps, d)
		closeFn()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}

	luckyRead := rows[0].rMean
	for i, p := range protocols {
		r := rows[i]
		ratio := float64(r.rMean) / float64(luckyRead)
		ok := r.wRounds == p.wantWRounds && r.rRounds == p.wantRRnds
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
		table.AddRow(p.name, Itoa(p.s), Itoa(r.wRounds), Itoa(r.rRounds),
			r.wMean.Round(10*time.Microsecond).String(), r.rMean.Round(10*time.Microsecond).String(),
			fmt.Sprintf("%.2f", ratio), Bool(ok))
	}

	return &Result{
		ID:     "E11",
		Title:  "Best-case comparison vs baselines (Sections 1 and 6)",
		Claim:  "Lucky reads and writes take one round-trip where ABD reads take two; the two-phase variant pays two rounds per write; latency scales with round-trips.",
		Tables: []*Table{table},
		Pass:   pass,
	}, nil
}

// e11Drive alternates writes and reads through d, returning mean
// latencies and the round counts the clients reported for the last
// pair (stable across the run).
func e11Drive(n int, d workload.Driver) (wMean, rMean time.Duration, wR, rR int, err error) {
	for i := 1; i <= n; i++ {
		start := time.Now()
		_, w, err := d.Write(0, "", workload.Value(i, 0))
		if err != nil {
			return 0, 0, 0, 0, err
		}
		wMean += time.Since(start)

		start = time.Now()
		_, r, err := d.Read(0, "")
		if err != nil {
			return 0, 0, 0, 0, err
		}
		rMean += time.Since(start)
		wR, rR = w.Rounds, r.Rounds
	}
	return wMean / time.Duration(n), rMean / time.Duration(n), wR, rR, nil
}
