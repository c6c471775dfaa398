package workload

import (
	"context"
	"errors"
	"testing"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/types"
)

// Continuous with Writers > 1 runs contending writer identities on
// every key of a core MW cluster; the history carries both identities
// and stays atomic under the stamp order.
func TestContinuousContendingWritersCore(t *testing.T) {
	c, err := core.NewCluster(core.Config{T: 1, B: 0, Fw: 0, NumReaders: 2,
		Writers: 2, RoundTimeout: 10 * time.Millisecond, OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	rec, err := Continuous{Writers: 2, Seed: 3,
		WritePace: time.Millisecond, ReadPace: 500 * time.Microsecond,
	}.Run(ctx, Register(c.Deployment))
	if err != nil {
		t.Fatal(err)
	}

	byWriter := map[types.ProcID]int{}
	for _, op := range rec.Ops() {
		if op.Kind == checker.KindWrite {
			byWriter[op.Client]++
		}
	}
	for w := 0; w < 2; w++ {
		if byWriter[types.WriterIDN(w)] == 0 {
			t.Errorf("writer %d recorded no writes", w)
		}
	}
	for _, v := range checker.CheckAtomicity(rec.Ops()) {
		t.Error(v)
	}
}

// The same contending workload through a kv store's two writer
// identities: both share every key, and the per-key histories stay
// atomic.
func TestContinuousContendingWritersKV(t *testing.T) {
	st, err := kv.Open(core.Config{T: 1, B: 0, Fw: 0, NumReaders: 2, Writers: 2,
		RoundTimeout: 10 * time.Millisecond, OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	d := KVDriver{S: st}
	if d.NumWriters() != 2 {
		t.Fatalf("NumWriters() = %d, want 2", d.NumWriters())
	}
	rec, err := Continuous{Keys: []string{"hot", "cold"}, Writers: 2, Seed: 7, HotFrac: 0.6,
		WritePace: time.Millisecond, ReadPace: 500 * time.Microsecond,
	}.Run(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, op := range rec.Ops() {
		if op.Kind == checker.KindWrite && op.Err == nil {
			writes++
			if idx := op.Client.WriterIndex(); idx >= 0 &&
				op.Value.Stamp().Writer != types.WID(idx) {
				t.Errorf("op by %s bound writer component %d", op.Client, op.Value.Stamp().Writer)
			}
		}
	}
	if writes == 0 {
		t.Fatal("no writes recorded")
	}
	for _, v := range checker.CheckAtomicityPerKey(rec.Ops()) {
		t.Error(v)
	}
}

// A driver with a single writer identity (Writers left at the default)
// refuses contending-writer traffic.
func TestContinuousWritersUnsupportedIsExplicit(t *testing.T) {
	st, err := kv.Open(core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1,
		RoundTimeout: 10 * time.Millisecond, OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	// Writers: 3 requested, but the driver has a single identity: the
	// run must refuse rather than silently degrade to one writer — a
	// degraded run would make contention scenarios vacuously pass.
	rec, err := Continuous{Writers: 3, Seed: 9,
		WritePace: time.Millisecond}.Run(ctx, KVDriver{S: st})
	if !errors.Is(err, ErrMWUnsupported) {
		t.Fatalf("Run with Writers=3 on a single-writer driver: err = %v, want ErrMWUnsupported", err)
	}
	if rec == nil || len(rec.Ops()) != 0 {
		t.Fatalf("refused run must record no operations, got %v", rec)
	}
}
