package workload

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"luckystore/internal/abd"
	"luckystore/internal/checker"
	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/regular"
	"luckystore/internal/ring"
	"luckystore/internal/router"
	"luckystore/internal/twophase"
	"luckystore/internal/types"
)

// drivers opens one deployment of each kind the Driver interface
// covers, with two readers and one writer; check is its consistency
// contract.
var drivers = []struct {
	name  string
	open  func(t *testing.T) Driver
	check func([]checker.Op) []checker.Violation
}{
	{"core", func(t *testing.T) Driver {
		c, err := core.NewCluster(core.Config{T: 1, NumReaders: 2, RoundTimeout: testRound, OpTimeout: testOp})
		return Register(opened(t, c, err).Deployment)
	}, checker.CheckAtomicity},
	{"kv", func(t *testing.T) Driver {
		st, err := kv.Open(core.Config{T: 1, NumReaders: 2, RoundTimeout: testRound, OpTimeout: testOp})
		return KVDriver{S: opened(t, st, err)}
	}, checker.CheckAtomicityPerKey},
	{"router", func(t *testing.T) Driver {
		st, err := kv.Open(core.Config{T: 1, NumReaders: 2, RoundTimeout: testRound, OpTimeout: testOp})
		if err != nil {
			t.Fatal(err)
		}
		r, err := router.New(router.Options{Seed: 1, Readers: 2}, map[ring.ClusterID]router.Backend{ring.ID(0): st})
		if err != nil {
			st.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = r.Close() })
		return RouterDriver{R: r}
	}, checker.CheckAtomicityPerKey},
	{"regular", func(t *testing.T) Driver {
		c, err := regular.NewCluster(regular.Config{T: 1, NumReaders: 2, RoundTimeout: testRound, OpTimeout: testOp})
		return Register(opened(t, c, err).Deployment)
	}, checker.CheckRegularity},
	{"twophase", func(t *testing.T) Driver {
		c, err := twophase.NewCluster(twophase.Config{T: 1, NumReaders: 2, RoundTimeout: testRound, OpTimeout: testOp})
		return Register(opened(t, c, err).Deployment)
	}, checker.CheckAtomicity},
	{"abd", func(t *testing.T) Driver {
		c, err := abd.NewCluster(abd.Config{T: 1, NumReaders: 2, OpTimeout: testOp})
		return Register(opened(t, c, err).Deployment)
	}, checker.CheckAtomicity},
}

const testRound, testOp = 10 * time.Millisecond, 5 * time.Second

// opened fails t on err, else closes c when t ends.
func opened[C interface{ Close() }](t *testing.T, c C, err error) C {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// Mixed through the Driver interface must behave identically across
// deployments: every history checker-clean under the deployment's
// contract, and the writes carrying the stamps 1..N the writer itself
// reports binding.
func TestMixedRunDriverAcrossDeployments(t *testing.T) {
	mix := Mixed{Writes: 15, ReadsPerReader: 10}
	for _, dep := range drivers {
		t.Run(dep.name, func(t *testing.T) {
			rec, err := mix.RunDriver(dep.open(t))
			if err != nil {
				t.Fatal(err)
			}
			ops := rec.Ops()
			for _, v := range dep.check(ops) {
				t.Error(v)
			}
			seen := map[types.TS]bool{}
			for _, op := range ops {
				if op.Kind == checker.KindWrite {
					seen[op.Value.TS] = true
				}
			}
			for i := types.TS(1); i <= types.TS(mix.Writes); i++ {
				if !seen[i] {
					t.Errorf("write ts %d missing from history", i)
				}
			}
		})
	}
}

// A client index outside a deployment's range is an error naming the
// index on every driver, never a panic.
func TestDriverRejectsOutOfRangeClient(t *testing.T) {
	for _, dep := range drivers {
		t.Run(dep.name, func(t *testing.T) {
			d := dep.open(t)
			for _, w := range []int{-1, d.NumWriters()} {
				if _, _, err := d.Write(w, DefaultKey, "v"); err == nil || !strings.Contains(err.Error(), fmt.Sprint(w)) {
					t.Errorf("Write(w=%d) error = %v, want one naming the index", w, err)
				}
			}
			r := d.NumReaders()
			if _, _, err := d.Read(r, DefaultKey); err == nil || !strings.Contains(err.Error(), fmt.Sprint(r)) {
				t.Errorf("Read(r=%d) error = %v, want one naming the index", r, err)
			}
		})
	}
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
	rec, err := Continuous{Keys: []string{"a", "b"}, Seed: 1}.Run(ctx, Register(c.Deployment))
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
