package workload

import (
	"context"
	"testing"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/regular"
	"luckystore/internal/twophase"
)

// Mixed through the Driver interface must behave identically across
// deployments: every history checker-clean under the deployment's
// contract.
func TestMixedRunDriverAcrossDeployments(t *testing.T) {
	mix := Mixed{Writes: 15, ReadsPerReader: 10}

	t.Run("core", func(t *testing.T) {
		c, err := core.NewCluster(core.Config{T: 1, B: 0, Fw: 0, NumReaders: 2,
			RoundTimeout: 10 * time.Millisecond, OpTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rec, err := mix.RunDriver(ClusterDriver{C: c})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range checker.CheckAtomicity(rec.Ops()) {
			t.Error(v)
		}
	})

	t.Run("kv", func(t *testing.T) {
		st, err := kv.Open(core.Config{T: 1, B: 0, Fw: 0, NumReaders: 2,
			RoundTimeout: 10 * time.Millisecond, OpTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		rec, err := mix.RunDriver(KVDriver{S: st})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range checker.CheckAtomicityPerKey(rec.Ops()) {
			t.Error(v)
		}
	})

	t.Run("regular", func(t *testing.T) {
		c, err := regular.NewCluster(regular.Config{T: 1, B: 0, NumReaders: 2,
			RoundTimeout: 10 * time.Millisecond, OpTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rec, err := mix.RunDriver(RegularDriver{C: c})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range checker.CheckRegularity(rec.Ops()) {
			t.Error(v)
		}
	})

	t.Run("twophase", func(t *testing.T) {
		c, err := twophase.NewCluster(twophase.Config{T: 1, B: 0, Fr: 0, NumReaders: 2,
			RoundTimeout: 10 * time.Millisecond, OpTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rec, err := mix.RunDriver(&TwoPhaseDriver{C: c})
		if err != nil {
			t.Fatal(err)
		}
		ops := rec.Ops()
		for _, v := range checker.CheckAtomicity(ops) {
			t.Error(v)
		}
		// The driver's timestamp mirror must agree with the values the
		// checker correlates — any drift would have shown up as
		// no-creation violations above; assert writes carry 1..N.
		seen := map[int64]bool{}
		for _, op := range ops {
			if op.Kind == checker.KindWrite {
				seen[int64(op.Value.TS)] = true
			}
		}
		for i := int64(1); i <= int64(mix.Writes); i++ {
			if !seen[i] {
				t.Errorf("write ts %d missing from history", i)
			}
		}
	})
}

// Continuous drives multi-key traffic until cancelled, records per-key
// ops, and stays checker-clean per key.
func TestContinuousMultiKey(t *testing.T) {
	st, err := kv.Open(core.Config{T: 1, B: 0, Fw: 0, NumReaders: 2,
		RoundTimeout: 10 * time.Millisecond, OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	rec, err := Continuous{
		Keys: []string{"x", "y", "z"}, Seed: 5, HotFrac: 0.5,
		WritePace: time.Millisecond, ReadPace: 500 * time.Microsecond,
	}.Run(ctx, KVDriver{S: st})
	if err != nil {
		t.Fatal(err)
	}
	ops := rec.Ops()
	if len(ops) == 0 {
		t.Fatal("no ops recorded")
	}
	byKey := checker.ByKey(ops)
	for _, k := range []string{"x", "y", "z"} {
		if len(byKey[k]) == 0 {
			t.Errorf("key %q saw no traffic", k)
		}
	}
	for _, v := range checker.CheckAtomicityPerKey(ops) {
		t.Error(v)
	}
}

// On a single-register driver the key set collapses to one register.
func TestContinuousCollapsesKeysForSingleRegister(t *testing.T) {
	c, err := core.NewCluster(core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1,
		RoundTimeout: 10 * time.Millisecond, OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	rec, err := Continuous{Keys: []string{"a", "b"}, Seed: 1}.Run(ctx, ClusterDriver{C: c})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range rec.Ops() {
		if op.Key != "" {
			t.Fatalf("single-register driver recorded key %q", op.Key)
		}
	}
	for _, v := range checker.CheckAtomicity(rec.Ops()) {
		t.Error(v)
	}
}
