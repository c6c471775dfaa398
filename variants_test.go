package luckystore_test

import (
	"errors"
	"testing"
	"time"

	"luckystore"
	"luckystore/internal/abd"
)

func TestFacadeRegularVariant(t *testing.T) {
	cfg := luckystore.RegularConfig{T: 2, B: 1, NumReaders: 2,
		RoundTimeout: 15 * time.Millisecond}
	cluster, err := luckystore.NewRegular(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	if err := cluster.Writer().Write("v"); err != nil {
		t.Fatal(err)
	}
	// The regular variant's maximal read budget: fr = t failures.
	cluster.CrashServer(0)
	cluster.CrashServer(1)
	got, err := cluster.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "v" {
		t.Errorf("Read() = %v", got)
	}
	if !cluster.Reader(0).LastMeta().Fast() {
		t.Error("regular read not fast despite fr = t budget")
	}
}

func TestFacadeTwoPhaseVariant(t *testing.T) {
	cfg := luckystore.TwoPhaseConfig{T: 2, B: 1, Fr: 1, NumReaders: 1,
		RoundTimeout: 15 * time.Millisecond}
	if cfg.S() != 7 {
		t.Fatalf("S = %d, want 2t+b+min(b,fr)+1 = 7", cfg.S())
	}
	cluster, err := luckystore.NewTwoPhase(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	if err := cluster.Writer().Write("v"); err != nil {
		t.Fatal(err)
	}
	if cluster.Writer().Rounds() != 2 {
		t.Errorf("two-phase write rounds = %d, want 2", cluster.Writer().Rounds())
	}
	cluster.CrashServer(0) // fr = 1 budget
	got, err := cluster.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "v" || !cluster.Reader(0).LastMeta().Fast() {
		t.Errorf("two-phase read = %v, meta %+v", got, cluster.Reader(0).LastMeta())
	}
}

func TestFacadeVariantValidation(t *testing.T) {
	if _, err := luckystore.NewRegular(luckystore.RegularConfig{T: 1, B: 2}); err == nil {
		t.Error("invalid regular config accepted")
	}
	if _, err := luckystore.NewTwoPhase(luckystore.TwoPhaseConfig{T: 2, B: 1, Fr: 9}); err == nil {
		t.Error("invalid two-phase config accepted")
	}
}

// TestOpTimeoutIsOneSentinel runs every client kind with a majority of
// its servers crashed: each Write and Read gives up at the operation
// deadline with an error that is luckystore.ErrOpTimeout, whichever
// variant — and phase — it names.
func TestOpTimeoutIsOneSentinel(t *testing.T) {
	const opTimeout = 150 * time.Millisecond
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) (write func() error, read func() error)
	}{
		{"core", func(t *testing.T) (func() error, func() error) {
			c, err := luckystore.New(luckystore.Config{T: 1, NumReaders: 1, OpTimeout: opTimeout})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			c.CrashServer(0)
			c.CrashServer(1)
			return func() error { return c.Writer().Write("v") },
				func() error { _, err := c.Reader(0).Read(); return err }
		}},
		{"regular", func(t *testing.T) (func() error, func() error) {
			c, err := luckystore.NewRegular(luckystore.RegularConfig{T: 1, NumReaders: 1, OpTimeout: opTimeout})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			c.CrashServer(0)
			c.CrashServer(1)
			return func() error { return c.Writer().Write("v") },
				func() error { _, err := c.Reader(0).Read(); return err }
		}},
		{"twophase", func(t *testing.T) (func() error, func() error) {
			c, err := luckystore.NewTwoPhase(luckystore.TwoPhaseConfig{T: 1, NumReaders: 1, OpTimeout: opTimeout})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			c.CrashServer(0)
			c.CrashServer(1)
			return func() error { return c.Writer().Write("v") },
				func() error { _, err := c.Reader(0).Read(); return err }
		}},
		{"abd", func(t *testing.T) (func() error, func() error) {
			c, err := abd.NewCluster(abd.Config{T: 1, NumReaders: 1, OpTimeout: opTimeout})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			c.CrashServer(0)
			c.CrashServer(1)
			return func() error { return c.Writer().Write("v") },
				func() error { _, err := c.Reader(0).Read(); return err }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			write, read := tc.build(t)
			for op, run := range map[string]func() error{"Write": write, "Read": read} {
				t0 := time.Now()
				err := run()
				if !errors.Is(err, luckystore.ErrOpTimeout) {
					t.Errorf("%s = %v; want luckystore.ErrOpTimeout", op, err)
				}
				if d := time.Since(t0); d < opTimeout {
					t.Errorf("%s gave up after %v, before its %v deadline", op, d, opTimeout)
				}
			}
		})
	}
}
