package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// testConfig returns the running-example config t=2, b=1 (S=6) with a
// short round timer suitable for the in-memory network.
func testConfig(fw int) Config {
	return Config{T: 2, B: 1, Fw: fw, NumReaders: 3, RoundTimeout: 15 * time.Millisecond}
}

func newTestCluster(t *testing.T, cfg Config, opts ...ClusterOption) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClusterRejectsInvalidConfig(t *testing.T) {
	bad := []Config{
		{T: -1},
		{T: 1, B: 2},
		{T: 2, B: 1, Fw: 2}, // fw > t−b
		{T: 2, B: 1, Fw: -1},
		{T: 2, B: 0, NumReaders: -1},
	}
	for _, cfg := range bad {
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("NewCluster accepted invalid config %+v", cfg)
		}
	}
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	c := newTestCluster(t, testConfig(1))
	if err := c.Writer().Write("hello"); err != nil {
		t.Fatal(err)
	}
	if m := c.Writer().LastMeta(); !m.Fast || m.Rounds != 1 {
		t.Errorf("write meta = %+v, want fast 1-round", m)
	}
	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got != (types.Tagged{TS: 1, Val: "hello"}) {
		t.Errorf("Read() = %v, want 〈1,hello〉", got)
	}
	if m := c.Reader(0).LastMeta(); !m.Fast() {
		t.Errorf("read meta = %+v, want fast", m)
	}
}

func TestReadFreshRegisterReturnsBottom(t *testing.T) {
	c := newTestCluster(t, testConfig(1))
	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsBottom() {
		t.Errorf("Read() on fresh register = %v, want ⊥", got)
	}
}

func TestWriteRejectsBottom(t *testing.T) {
	c := newTestCluster(t, testConfig(1))
	if err := c.Writer().Write(""); !errors.Is(err, ErrBottomValue) {
		t.Errorf("Write(⊥) = %v, want ErrBottomValue", err)
	}
}

func TestSequentialWritesMonotonicTimestamps(t *testing.T) {
	c := newTestCluster(t, testConfig(1))
	for i := 1; i <= 5; i++ {
		if err := c.Writer().Write(types.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if m := c.Writer().LastMeta(); m.TS != types.TS(i) {
			t.Errorf("write %d got ts %d", i, m.TS)
		}
	}
	got, err := c.Reader(1).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got != (types.Tagged{TS: 5, Val: "v5"}) {
		t.Errorf("Read() = %v, want 〈5,v5〉", got)
	}
}

// Theorem 3: with at most fw actual failures, a synchronous WRITE is
// fast; with fw+1 it falls back to the 3-round slow path.
func TestFastWriteFailureThreshold(t *testing.T) {
	cfg := testConfig(1) // fw = 1

	t.Run("fw crashes: fast", func(t *testing.T) {
		c := newTestCluster(t, cfg)
		c.CrashServer(0)
		if err := c.Writer().Write("v"); err != nil {
			t.Fatal(err)
		}
		if m := c.Writer().LastMeta(); !m.Fast || m.Rounds != 1 {
			t.Errorf("meta = %+v, want fast despite fw=1 crash", m)
		}
	})

	t.Run("fw+1 crashes: slow", func(t *testing.T) {
		c := newTestCluster(t, cfg)
		c.CrashServer(0)
		c.CrashServer(1)
		if err := c.Writer().Write("v"); err != nil {
			t.Fatal(err)
		}
		if m := c.Writer().LastMeta(); m.Fast || m.Rounds != 3 {
			t.Errorf("meta = %+v, want slow 3-round write", m)
		}
	})
}

// Theorem 4, fast-write case: a lucky READ after a fast WRITE is fast
// when at most fr servers fail (fw=1 ⇒ fr=0 here: no failures).
func TestFastReadAfterFastWrite(t *testing.T) {
	c := newTestCluster(t, testConfig(1))
	if err := c.Writer().Write("v"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "v" {
		t.Errorf("Read() = %v", got)
	}
	if m := c.Reader(0).LastMeta(); !m.Fast() || m.WroteBack {
		t.Errorf("read meta = %+v, want fast without write-back", m)
	}
}

// Theorem 4, slow-write case: with fw=0 (fr = t−b = 1), one crash makes
// the WRITE slow (3 rounds), after which a lucky READ is still fast via
// fast_vw despite the crash.
func TestFastReadAfterSlowWriteDespiteFrFailures(t *testing.T) {
	cfg := testConfig(0) // fw = 0, fr = 1
	c := newTestCluster(t, cfg)
	c.CrashServer(5)
	if err := c.Writer().Write("v"); err != nil {
		t.Fatal(err)
	}
	if m := c.Writer().LastMeta(); m.Fast {
		t.Fatalf("write meta = %+v, want slow (fw=0 and one crash)", m)
	}
	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "v" {
		t.Errorf("Read() = %v", got)
	}
	if m := c.Reader(0).LastMeta(); !m.Fast() {
		t.Errorf("read meta = %+v, want fast via fast_vw", m)
	}
}

// Beyond fr failures the READ may be slow, but must stay correct.
func TestReadBeyondFrFailuresStillCorrect(t *testing.T) {
	cfg := testConfig(1) // fr = 0
	c := newTestCluster(t, cfg)
	if err := c.Writer().Write("v"); err != nil {
		t.Fatal(err)
	}
	c.CrashServer(0)
	c.CrashServer(1) // 2 > fr failures
	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "v" {
		t.Errorf("Read() = %v, want v", got)
	}
}

// A READ overlapping an in-progress WRITE (contention) must stay
// atomic; here it observes the pre-written value at b+1 servers,
// selects it and writes it back (slow READ).
func TestReadUnderContentionWritesBack(t *testing.T) {
	cfg := testConfig(1)
	c := newTestCluster(t, cfg)
	sim := c.Sim()

	// First, a complete write so the register is non-trivial.
	if err := c.Writer().Write("v1"); err != nil {
		t.Fatal(err)
	}

	// Start a second write whose PW reaches only s0 and s1, holding the
	// rest: the write is in progress, unacknowledged.
	for i := 2; i < cfg.S(); i++ {
		sim.Hold(types.WriterID(), types.ServerID(i))
	}
	writeDone := make(chan error, 1)
	go func() { writeDone <- c.Writer().Write("v2") }()

	// Give the two PW deliveries time to land.
	waitUntil(t, time.Second, func() bool {
		srv := c.ServerAutomaton(0).(*Server)
		pw, _, _ := srv.State()
		return pw.TS == 2
	})

	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got != (types.Tagged{TS: 2, Val: "v2"}) {
		t.Errorf("Read() = %v, want the concurrent write's value 〈2,v2〉", got)
	}
	m := c.Reader(0).LastMeta()
	if !m.WroteBack {
		t.Errorf("read meta = %+v, want write-back (value not fast-confirmed)", m)
	}
	if m.Rounds() != m.QueryRounds+3 {
		t.Errorf("counted Rounds() = %d with %d query rounds, want query+3", m.Rounds(), m.QueryRounds)
	}

	// Unblock and finish the write.
	sim.ReleaseAll()
	if err := <-writeDone; err != nil {
		t.Fatal(err)
	}

	// After the dust settles, reads return v2 and are fast again.
	got, err = c.Reader(1).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "v2" {
		t.Errorf("follow-up Read() = %v", got)
	}
}

// Appendix E (ghost): writer crashes mid-write after pre-writing to
// only b+1 servers. The next READ adopts and writes back the orphaned
// value; the following READ is fast again.
func TestWriterCrashGhostRecovery(t *testing.T) {
	cfg := testConfig(1)
	c := newTestCluster(t, cfg)
	if err := c.Writer().Write("v1"); err != nil {
		t.Fatal(err)
	}
	fault := &WriteFault{
		PWTo:         []types.ProcID{types.ServerID(0), types.ServerID(1)},
		CrashAfterPW: true,
	}
	if err := c.Writer().WriteWithFault("v2", fault); !errors.Is(err, ErrCrashed) {
		t.Fatalf("faulty write = %v, want ErrCrashed", err)
	}
	if err := c.Writer().Write("v3"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash = %v, want ErrCrashed", err)
	}

	// The pre-written v2 is at b+1 servers: safe, nothing higher → the
	// READ returns it, slowly (write-back).
	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got != (types.Tagged{TS: 2, Val: "v2"}) {
		t.Errorf("Read() = %v, want orphaned 〈2,v2〉", got)
	}
	if m := c.Reader(0).LastMeta(); !m.WroteBack {
		t.Errorf("meta = %+v, want write-back of the orphan", m)
	}

	// The write-back completed at S−t servers: the next synchronous
	// READ is fast (Theorem 13's recovery).
	got, err = c.Reader(1).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "v2" {
		t.Errorf("follow-up Read() = %v", got)
	}
	if m := c.Reader(1).LastMeta(); !m.Fast() {
		t.Errorf("follow-up meta = %+v, want fast", m)
	}
}

// Wait-freedom under the maximum tolerated crashes: t crashed servers,
// operations still complete (slowly).
func TestWaitFreedomUnderMaxCrashes(t *testing.T) {
	cfg := testConfig(1)
	c := newTestCluster(t, cfg)
	c.CrashServer(0)
	c.CrashServer(3)
	if err := c.Writer().Write("v"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "v" {
		t.Errorf("Read() = %v", got)
	}
}

// More than t unresponsive servers violates the model; operations must
// fail with ErrOpTimeout rather than hang.
func TestOpTimeoutWhenModelViolated(t *testing.T) {
	cfg := testConfig(1)
	cfg.OpTimeout = 200 * time.Millisecond
	c := newTestCluster(t, cfg)
	for i := 0; i < 3; i++ { // t+1 = 3 crashes
		c.CrashServer(i)
	}
	if err := c.Writer().Write("v"); !errors.Is(err, ErrOpTimeout) {
		t.Errorf("Write with t+1 crashes = %v, want ErrOpTimeout", err)
	}
}

// The freezing mechanism end-to-end: a slow READ announces its
// timestamp; the writer detects it during the next WRITE, freezes the
// then-current value and ships it with the following WRITE; servers
// expose it to the reader with the matching tsr.
func TestFreezingMechanismEndToEnd(t *testing.T) {
	cfg := testConfig(1)
	c := newTestCluster(t, cfg)
	sim := c.Sim()
	rj := types.ReaderID(2)
	rep, err := sim.Endpoint(rj)
	if err != nil {
		t.Fatal(err)
	}

	// A hand-driven slow READ: round 2 announces tsr=1 to every server.
	for i := 0; i < cfg.S(); i++ {
		if err := rep.Send(types.ServerID(i), wire.Read{TSR: 1, Round: 2}); err != nil {
			t.Fatal(err)
		}
	}
	acks := collectReadAcks(t, rep, cfg.S())
	for _, a := range acks {
		if a.Frozen != types.InitialFrozen() {
			t.Fatalf("frozen slot set before any freeze: %+v", a.Frozen)
		}
	}

	// WRITE 1: the writer's PW collects newread {r2,1} from ≥ b+1
	// servers and freezes 〈1,v1〉 for r2 (shipped with WRITE 2's PW).
	if err := c.Writer().Write("v1"); err != nil {
		t.Fatal(err)
	}
	// WRITE 2 carries the frozen set to the servers.
	if err := c.Writer().Write("v2"); err != nil {
		t.Fatal(err)
	}

	// Round 3 of the slow READ now observes the frozen pair with
	// matching tsr at every correct server.
	for i := 0; i < cfg.S(); i++ {
		if err := rep.Send(types.ServerID(i), wire.Read{TSR: 1, Round: 3}); err != nil {
			t.Fatal(err)
		}
	}
	acks = collectReadAcks(t, rep, cfg.S())
	frozenCount := 0
	for _, a := range acks {
		if a.Frozen == (types.FrozenPair{PW: types.Tagged{TS: 1, Val: "v1"}, TSR: 1}) {
			frozenCount++
		}
	}
	if frozenCount < cfg.SafeThreshold() {
		t.Errorf("frozen 〈1,v1〉@tsr1 visible at %d servers, want ≥ b+1=%d",
			frozenCount, cfg.SafeThreshold())
	}

	// The writer froze exactly one value for this READ: a later WRITE
	// must not re-freeze for the same tsr (servers keep reporting
	// nothing new for r2).
	if err := c.Writer().Write("v3"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.S(); i++ {
		if err := rep.Send(types.ServerID(i), wire.Read{TSR: 1, Round: 4}); err != nil {
			t.Fatal(err)
		}
	}
	acks = collectReadAcks(t, rep, cfg.S())
	for _, a := range acks {
		if a.Frozen.TSR == 1 && a.Frozen.PW.TS > 1 {
			t.Errorf("value re-frozen for tsr 1: %+v", a.Frozen)
		}
	}
}

// Continuous writes with concurrent readers: every operation completes
// (wait-freedom) and per-reader timestamps never go backwards (the
// READ-hierarchy property restricted to one reader's own sequence).
func TestConcurrentWritesAndReadsStress(t *testing.T) {
	cfg := testConfig(1)
	cfg.RoundTimeout = 5 * time.Millisecond
	c := newTestCluster(t, cfg)

	const writes = 60
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= writes; i++ {
			if err := c.Writer().Write(types.Value(fmt.Sprintf("v%d", i))); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	}()

	for r := 0; r < 3; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last types.TS
			for i := 0; i < 40; i++ {
				got, err := c.Reader(r).Read()
				if err != nil {
					t.Errorf("reader %d read %d: %v", r, i, err)
					return
				}
				if got.TS < last {
					t.Errorf("reader %d: timestamp went backwards %d → %d", r, last, got.TS)
					return
				}
				last = got.TS
			}
		}()
	}
	wg.Wait()

	// Final read sees the last write.
	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.TS != writes {
		t.Errorf("final Read() ts = %d, want %d", got.TS, writes)
	}
}

// feedPWAcks opens a pre-write round on w and delivers a PW_ACK set to
// it, the way a live pre-write phase does.
func feedPWAcks(w *Writer, acks map[types.ProcID]wire.PWAck) {
	w.opTS = w.ts
	w.emit(time.Now(), phasePW, nil, wire.PW{TS: w.ts}, new([]transport.Outgoing))
	for id, a := range acks {
		w.acceptPWAck(wire.Envelope{From: id, To: w.id, Msg: a})
	}
}

// freeze runs w's freezevalues() over the PW_ACKs fed to it.
func freeze(w *Writer) { w.frozen = w.fz.Freeze(&w.rnd, w.acks, w.b, w.pw, w.frozen) }

// The writer's freezevalues picks the (b+1)-st highest reported
// timestamp and freezes at most one value per reader per write.
func TestWriterFreezeValuesSelection(t *testing.T) {
	cfg := testConfig(1) // b = 1 → need ≥2 reports, take 2nd highest
	w := NewWriter(cfg, types.WriterID(), nil)
	w.ts = 7
	w.pw = types.Tagged{TS: 7, Val: "v7"}
	rj := types.ReaderID(0)
	feedPWAcks(w, map[types.ProcID]wire.PWAck{
		types.ServerID(0): {TS: 7, NewRead: []types.ReadStamp{{Reader: rj, TSR: 5}}},
		types.ServerID(1): {TS: 7, NewRead: []types.ReadStamp{{Reader: rj, TSR: 9}}},
		types.ServerID(2): {TS: 7, NewRead: []types.ReadStamp{{Reader: rj, TSR: 3}}},
	})
	freeze(w)
	if len(w.frozen) != 1 {
		t.Fatalf("frozen = %+v, want exactly one entry", w.frozen)
	}
	got := w.frozen[0]
	if got.Reader != rj || got.PW != w.pw || got.TSR != 5 {
		t.Errorf("frozen entry = %+v, want {r0 〈7,v7〉 5} (2nd-highest of 9,5,3)", got)
	}
	if w.fz.ReadTS[rj] != 5 {
		t.Errorf("read_ts[r0] = %d, want 5", w.fz.ReadTS[rj])
	}

	// A lone report (< b+1) must not freeze.
	w2 := NewWriter(cfg, types.WriterID(), nil)
	w2.ts, w2.pw = 1, types.Tagged{TS: 1, Val: "x"}
	feedPWAcks(w2, map[types.ProcID]wire.PWAck{
		types.ServerID(0): {TS: 1, NewRead: []types.ReadStamp{{Reader: rj, TSR: 2}}},
	})
	freeze(w2)
	if len(w2.frozen) != 0 {
		t.Errorf("froze on a single report: %+v", w2.frozen)
	}

	// Duplicate stamps inside one malicious ack count once.
	w3 := NewWriter(cfg, types.WriterID(), nil)
	w3.ts, w3.pw = 1, types.Tagged{TS: 1, Val: "x"}
	feedPWAcks(w3, map[types.ProcID]wire.PWAck{
		types.ServerID(0): {TS: 1, NewRead: []types.ReadStamp{
			{Reader: rj, TSR: 2}, {Reader: rj, TSR: 8},
		}},
	})
	freeze(w3)
	if len(w3.frozen) != 0 {
		t.Errorf("duplicate stamps from one server caused a freeze: %+v", w3.frozen)
	}

	// ... and so do they in a set too large to scan (the map path): only
	// the first of s0's nine stamps for r0 is its report.
	w4 := NewWriter(cfg, types.WriterID(), nil)
	w4.ts, w4.pw = 1, types.Tagged{TS: 1, Val: "x"}
	var forged []types.ReadStamp
	for tsr := types.ReaderTS(2); tsr <= 10; tsr++ {
		forged = append(forged, types.ReadStamp{Reader: rj, TSR: tsr})
	}
	feedPWAcks(w4, map[types.ProcID]wire.PWAck{
		types.ServerID(0): {TS: 1, NewRead: forged},
		types.ServerID(1): {TS: 1, NewRead: []types.ReadStamp{{Reader: rj, TSR: 4}}},
	})
	freeze(w4)
	if len(w4.frozen) != 1 || w4.frozen[0].TSR != 2 {
		t.Errorf("frozen = %+v, want one entry at tsr 2 (2nd-highest of 4 and s0's first, 2)", w4.frozen)
	}
}

// collectReadAcks receives n READ_ACKs from rep's inbox.
func collectReadAcks(t *testing.T, rep interface {
	Recv() <-chan wire.Envelope
}, n int) []wire.ReadAck {
	t.Helper()
	acks := make([]wire.ReadAck, 0, n)
	deadline := time.After(5 * time.Second)
	for len(acks) < n {
		select {
		case env, ok := <-rep.Recv():
			if !ok {
				t.Fatal("endpoint closed")
			}
			if a, isAck := env.Msg.(wire.ReadAck); isAck {
				acks = append(acks, a)
			}
		case <-deadline:
			t.Fatalf("got %d of %d READ_ACKs", len(acks), n)
		}
	}
	return acks
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
