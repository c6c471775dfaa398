package twophase

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/types"
	"luckystore/internal/wire"
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

func TestServerHasNoVWAndFrozenViaW(t *testing.T) {
	s := NewServer()
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
	s2 := NewServer()
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

func TestWriteBackTakesTwoRounds(t *testing.T) {
	cfg := testConfig()
	c := newTestCluster(t, cfg)
	if err := c.Writer().Write("v"); err != nil {
		t.Fatal(err)
	}
	c.CrashServer(0)
	c.CrashServer(1)
	if _, err := c.Reader(0).Read(); err != nil {
		t.Fatal(err)
	}
	m := c.Reader(0).LastMeta()
	if m.WroteBack && m.Rounds() != m.QueryRounds+2 {
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
	rec := checker.NewRecorder()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 40; i++ {
			v := types.Value(fmt.Sprintf("v%d", i))
			inv := time.Now()
			if err := c.Writer().Write(v); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			rec.Add(checker.Op{
				Client: types.WriterID(), Kind: checker.KindWrite,
				Value:  types.Tagged{TS: types.TS(i), Val: v},
				Invoke: inv, Return: time.Now(), Rounds: 2,
			})
		}
	}()
	for r := 0; r < cfg.NumReaders; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				inv := time.Now()
				got, err := c.Reader(r).Read()
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				m := c.Reader(r).LastMeta()
				rec.Add(checker.Op{
					Client: types.ReaderID(r), Kind: checker.KindRead,
					Value: got, Invoke: inv, Return: time.Now(), Rounds: m.Rounds(),
				})
			}
		}()
	}
	wg.Wait()
	for _, v := range checker.CheckAtomicity(rec.Ops()) {
		t.Errorf("atomicity violation: %v", v)
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
