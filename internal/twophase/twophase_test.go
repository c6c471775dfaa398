package twophase

import (
	"testing"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/core"
	"luckystore/internal/types"
	"luckystore/internal/wire"
	"luckystore/internal/workload"
)

func testConfig() Config {
	// t=2, b=1, fr=1 → S = 2·2 + 1 + min(1,1) + 1 = 7.
	return Config{T: 2, B: 1, Fr: 1, NumReaders: 2, RoundTimeout: 15 * time.Millisecond}
}

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestConfigFormulaAndValidation(t *testing.T) {
	tests := []struct {
		t, b, fr int
		wantS    int
	}{
		{2, 1, 1, 7}, // min(b,fr)=1
		{2, 1, 2, 7}, // min(1,2)=1
		{2, 2, 1, 8}, // min(2,1)=1
		{2, 0, 2, 5}, // b=0: optimal resilience, no extra server
		{3, 1, 0, 8}, // fr=0: no extra server
	}
	for _, tc := range tests {
		cfg := Config{T: tc.t, B: tc.b, Fr: tc.fr}
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", cfg, err)
		}
		if got := cfg.S(); got != tc.wantS {
			t.Errorf("S(t=%d,b=%d,fr=%d) = %d, want %d", tc.t, tc.b, tc.fr, got, tc.wantS)
		}
	}
	bad := []Config{{T: -1}, {T: 1, B: 2}, {T: 2, B: 1, Fr: 3}, {T: 2, B: 1, Fr: -1}}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", cfg)
		}
	}
}

// TestServerHasNoVWAndFrozenViaW holds core's server, which this
// variant deploys, to Fig. 8: a writer's W carries the freeze, a
// reader's does not, and no two-phase round sets vw.
func TestServerHasNoVWAndFrozenViaW(t *testing.T) {
	s := core.NewServer()
	// PW carries no frozen processing in this variant.
	out := s.StepAppend(types.WriterID(), wire.PW{TS: 1, PW: types.Tagged{TS: 1, Val: "a"}, W: types.Bottom()}, nil)
	if _, ok := out[0].Msg.(wire.PWAck); !ok {
		t.Fatalf("PW reply = %+v", out[0].Msg)
	}
	// Frozen arrives inside the writer's W message.
	rj := types.ReaderID(0)
	s.StepAppend(rj, wire.Read{TSR: 3, Round: 2}, nil) // announce tsr
	fz := []types.FrozenEntry{{Reader: rj, PW: types.Tagged{TS: 1, Val: "a"}, TSR: 3}}
	s.StepAppend(types.WriterID(), wire.W{Round: 2, Tag: 1, C: types.Tagged{TS: 1, Val: "a"}, Frozen: fz}, nil)
	ack := s.StepAppend(rj, wire.Read{TSR: 3, Round: 3}, nil)[0].Msg.(wire.ReadAck)
	if ack.Frozen != (types.FrozenPair{PW: types.Tagged{TS: 1, Val: "a"}, TSR: 3}) {
		t.Errorf("frozen slot = %+v", ack.Frozen)
	}
	if !ack.VW.IsBottom() {
		t.Errorf("two-phase server reported a vw value: %v", ack.VW)
	}
	// Frozen inside a reader's W message must be ignored.
	s2 := core.NewServer()
	s2.StepAppend(rj, wire.Read{TSR: 3, Round: 2}, nil)
	s2.StepAppend(rj, wire.W{Round: 2, Tag: 3, C: types.Tagged{TS: 1, Val: "a"}, Frozen: fz}, nil)
	ack2 := s2.StepAppend(rj, wire.Read{TSR: 3, Round: 3}, nil)[0].Msg.(wire.ReadAck)
	if ack2.Frozen.TSR == 3 {
		t.Error("server applied frozen set from a reader")
	}
}

func TestWriteAlwaysTwoRounds(t *testing.T) {
	c := newTestCluster(t, testConfig())
	if err := c.Writer().Write("v"); err != nil {
		t.Fatal(err)
	}
	if got := c.Writer().Rounds(); got != 2 {
		t.Errorf("write rounds = %d, want 2", got)
	}
	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got != (types.Tagged{TS: 1, Val: "v"}) {
		t.Errorf("Read() = %v", got)
	}
}

// Proposition 6 property (1): with at most fr failures every lucky READ
// is fast.
func TestFastReadDespiteFrFailures(t *testing.T) {
	cfg := testConfig() // fr = 1
	c := newTestCluster(t, cfg)
	c.CrashServer(0)
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
	if m := c.Reader(0).LastMeta(); !m.Fast() {
		t.Errorf("read meta = %+v, want fast despite fr=1 crash", m)
	}
}

func TestReadBeyondFrMayBeSlowButCorrect(t *testing.T) {
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	if err := c.Writer().Write("v"); err != nil {
		t.Fatal(err)
	}
	c.CrashServer(0)
	c.CrashServer(1) // 2 > fr = 1
	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "v" {
		t.Errorf("Read() = %v", got)
	}
}

// A READ that selects a pair no fast predicate confirms writes it back
// in two rounds (Fig. 7 lines 24–26), counted as they were opened. Its
// pair is a WRITE's pre-write that reached b+1 servers only: safe, the
// highest, and held in no server's w. (Crashing fr+1 servers does not
// make a READ slow: after a completed WRITE the S−t live servers all
// hold w, at least S−t−fr of them.)
func TestWriteBackTakesTwoRounds(t *testing.T) {
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	if err := c.Writer().Write("v1"); err != nil {
		t.Fatal(err)
	}
	sim := c.Sim()
	for i := cfg.SafeThreshold(); i < cfg.S(); i++ {
		sim.Hold(types.WriterID(), types.ServerID(i))
	}
	writeDone := make(chan error, 1)
	go func() { writeDone <- c.Writer().Write("v2") }()
	t.Cleanup(func() {
		sim.ReleaseAll()
		if err := <-writeDone; err != nil {
			t.Error(err)
		}
	})
	// The pre-write is sent to s0 first and to the last server last:
	// once that one holds it, the READ's queries queue behind it at the
	// b+1 servers it reached.
	for deadline := time.Now().Add(time.Second); sim.HeldCount(types.WriterID(), types.ServerID(cfg.S()-1)) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the pre-write of v2 was never sent")
		}
	}
	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	m := c.Reader(0).LastMeta()
	if got.Val != "v2" || !m.WroteBack {
		t.Fatalf("Read() = %v, meta %+v; want the pre-written v2, written back", got, m)
	}
	if m.Rounds() != m.QueryRounds+2 {
		t.Errorf("Rounds() = %d with %d query rounds; write-back must add exactly 2", m.Rounds(), m.QueryRounds)
	}
}

func TestBottomOnFreshRegister(t *testing.T) {
	c := newTestCluster(t, testConfig())
	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsBottom() {
		t.Errorf("Read() = %v, want ⊥", got)
	}
}

func TestAtomicityUnderConcurrency(t *testing.T) {
	cfg := testConfig()
	cfg.RoundTimeout = 5 * time.Millisecond
	c := newTestCluster(t, cfg)
	rec, err := workload.Mixed{Writes: 40, ReadsPerReader: 25}.RunDriver(workload.Register(c.Deployment))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range checker.CheckAtomicity(rec.Ops()) {
		t.Errorf("atomicity violation: %v", v)
	}
	if writes, _ := workload.RoundStats(rec.Ops()); writes[2] != 40 {
		t.Errorf("counted write rounds %v, want 40 two-round writes", writes)
	}
}

// The freezing mechanism of this variant works via the W message:
// verified end-to-end with a hand-driven slow READ.
func TestFreezingViaWMessage(t *testing.T) {
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	rj := types.ReaderID(1)
	rep, err := c.Sim().Endpoint(rj)
	if err != nil {
		t.Fatal(err)
	}
	// Announce a slow READ (round 2, tsr=1) to all servers.
	for i := 0; i < cfg.S(); i++ {
		if err := rep.Send(types.ServerID(i), wire.Read{TSR: 1, Round: 2}); err != nil {
			t.Fatal(err)
		}
	}
	drainAcks(t, rep, cfg.S())
	// One write freezes and delivers in the same operation (frozen set
	// rides the W message, not the next PW).
	if err := c.Writer().Write("v1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.S(); i++ {
		if err := rep.Send(types.ServerID(i), wire.Read{TSR: 1, Round: 3}); err != nil {
			t.Fatal(err)
		}
	}
	acks := drainAcks(t, rep, cfg.S())
	frozen := 0
	for _, a := range acks {
		if a.Frozen == (types.FrozenPair{PW: types.Tagged{TS: 1, Val: "v1"}, TSR: 1}) {
			frozen++
		}
	}
	if frozen < cfg.SafeThreshold() {
		t.Errorf("frozen visible at %d servers after one write, want ≥ %d", frozen, cfg.SafeThreshold())
	}
}

func drainAcks(t *testing.T, rep interface {
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
			t.Fatalf("got %d of %d acks", len(acks), n)
		}
	}
	return acks
}
