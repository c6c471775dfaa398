package abd

import (
	"errors"
	"testing"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/types"
	"luckystore/internal/wire"
	"luckystore/internal/workload"
)

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{T: -1}).Validate(); err == nil {
		t.Error("negative t accepted")
	}
	if err := (Config{T: 1, NumReaders: -1}).Validate(); err == nil {
		t.Error("negative readers accepted")
	}
	cfg := Config{T: 2}
	if cfg.S() != 5 || cfg.Quorum() != 3 {
		t.Errorf("S=%d Quorum=%d, want 5 and 3", cfg.S(), cfg.Quorum())
	}
}

func TestServerAutomaton(t *testing.T) {
	s := NewServer()
	out := s.StepAppend(types.WriterID(), wire.ABDWrite{Seq: 1, C: types.Tagged{TS: 2, Val: "b"}}, nil)
	if len(out) != 1 {
		t.Fatalf("no ack: %v", out)
	}
	// Older write ignored, still acked.
	out = s.StepAppend(types.WriterID(), wire.ABDWrite{Seq: 2, C: types.Tagged{TS: 1, Val: "a"}}, nil)
	if len(out) != 1 {
		t.Fatalf("stale write not acked")
	}
	out = s.StepAppend(types.ReaderID(0), wire.ABDRead{Seq: 3}, nil)
	ack := out[0].Msg.(wire.ABDReadAck)
	if ack.C != (types.Tagged{TS: 2, Val: "b"}) {
		t.Errorf("read ack = %v, want 〈2,b〉", ack.C)
	}
	if s.StepAppend(types.WriterID(), wire.Read{TSR: 1, Round: 1}, nil) != nil {
		t.Error("ABD server answered a lucky-protocol message")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := newTestCluster(t, Config{T: 2, NumReaders: 2})
	if err := c.Writer().Write("hello"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got != (types.Tagged{TS: 1, Val: "hello"}) {
		t.Errorf("Read() = %v", got)
	}
	if w, r := c.Writer().LastMeta().Rounds, c.Reader(0).LastMeta().Rounds(); w != 1 || r != 2 {
		t.Errorf("round counts = (%d,%d), want (1,2)", w, r)
	}
}

func TestBottomOnFreshRegister(t *testing.T) {
	c := newTestCluster(t, Config{T: 1, NumReaders: 1})
	got, err := c.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsBottom() {
		t.Errorf("Read() = %v, want ⊥", got)
	}
}

func TestToleratesTCrashes(t *testing.T) {
	c := newTestCluster(t, Config{T: 2, NumReaders: 1})
	c.CrashServer(0)
	c.CrashServer(1)
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

func TestTimesOutBeyondT(t *testing.T) {
	c := newTestCluster(t, Config{T: 1, NumReaders: 1, OpTimeout: 150 * time.Millisecond})
	c.CrashServer(0)
	c.CrashServer(1) // t+1 crashes: no majority
	if err := c.Writer().Write("v"); !errors.Is(err, ErrOpTimeout) {
		t.Errorf("Write = %v, want ErrOpTimeout", err)
	}
}

func TestRejectsBottomWrite(t *testing.T) {
	c := newTestCluster(t, Config{T: 1, NumReaders: 0})
	if err := c.Writer().Write(""); err == nil {
		t.Error("Write(⊥) accepted")
	}
}

func TestAtomicityUnderConcurrency(t *testing.T) {
	c := newTestCluster(t, Config{T: 2, NumReaders: 3})
	rec, err := workload.Mixed{Writes: 40, ReadsPerReader: 25}.RunDriver(workload.Register(c.Deployment))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range checker.CheckAtomicity(rec.Ops()) {
		t.Errorf("atomicity violation: %v", v)
	}
	writes, reads := workload.RoundStats(rec.Ops())
	if writes[1] != 40 || reads[2] != 3*25 {
		t.Errorf("counted rounds: writes %v, reads %v; want 40 one-round writes and 75 two-round reads", writes, reads)
	}
}
