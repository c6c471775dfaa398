package workload

import (
	"testing"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/core"
)

func testCluster(t *testing.T) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Config{
		T: 2, B: 1, Fw: 1, NumReaders: 2, RoundTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestValueUniqueAndPadded(t *testing.T) {
	if Value(1, 0) == Value(2, 0) {
		t.Error("values not unique")
	}
	if got := len(Value(3, 64)); got != 64 {
		t.Errorf("padded value length = %d, want 64", got)
	}
	if got := Value(12, 0); got != "v12" {
		t.Errorf("Value(12,0) = %q", got)
	}
}

func TestMixedWorkloadAtomic(t *testing.T) {
	c := testCluster(t)
	rec, err := Mixed{Writes: 25, ReadsPerReader: 15}.RunDriver(Register(c.Deployment))
	if err != nil {
		t.Fatal(err)
	}
	ops := rec.Ops()
	if len(ops) != 25+2*15 {
		t.Fatalf("recorded %d ops", len(ops))
	}
	if vs := checker.CheckAtomicity(ops); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
}

func TestMixedWorkloadReportsClientErrors(t *testing.T) {
	// Crash t+1 servers: operations cannot finish; Run must surface the
	// timeout instead of hanging (cluster OpTimeout guards each op).
	cShort, err := core.NewCluster(core.Config{
		T: 2, B: 1, Fw: 1, NumReaders: 1,
		RoundTimeout: 5 * time.Millisecond, OpTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cShort.Close)
	for i := 0; i < 3; i++ {
		cShort.CrashServer(i)
	}
	if _, err := (Mixed{Writes: 1, ReadsPerReader: 1}).RunDriver(Register(cShort.Deployment)); err == nil {
		t.Error("RunDriver swallowed client errors")
	}
}
