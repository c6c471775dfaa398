package drive_test

import (
	"errors"
	"testing"
	"time"

	"luckystore/internal/abd"
	"luckystore/internal/core"
	"luckystore/internal/regular"
	"luckystore/internal/simnet"
	"luckystore/internal/transport"
	"luckystore/internal/twophase"
	"luckystore/internal/types"
)

// cluster is what the test needs of every client kind's deployment.
type cluster struct {
	sim   *simnet.Network
	s     int
	write func() error
	read  func() error
	close func()
}

// TestPrivateOpEndsWithErrClosedOnClose parks a lone WRITE and a lone
// READ of each client kind on its private endpoint — every server held,
// a round timer short and the operation deadline far — and closes the
// cluster: both must return transport.ErrClosed within 500 ms, whatever
// the driver's timer was doing.
func TestPrivateOpEndsWithErrClosedOnClose(t *testing.T) {
	const (
		round = 10 * time.Millisecond
		op    = time.Minute
		bound = 500 * time.Millisecond
	)
	for name, build := range map[string]func(t *testing.T) cluster{
		"core": func(t *testing.T) cluster {
			c, err := core.NewCluster(core.Config{T: 1, NumReaders: 1, RoundTimeout: round, OpTimeout: op})
			if err != nil {
				t.Fatal(err)
			}
			return cluster{c.Sim(), c.Config().S(), func() error { return c.Writer().Write("v") },
				func() error { _, err := c.Reader(0).Read(); return err }, c.Close}
		},
		"regular": func(t *testing.T) cluster {
			c, err := regular.NewCluster(regular.Config{T: 1, NumReaders: 1, RoundTimeout: round, OpTimeout: op})
			if err != nil {
				t.Fatal(err)
			}
			return cluster{c.Sim(), c.Config().S(), func() error { return c.Writer().Write("v") },
				func() error { _, err := c.Reader(0).Read(); return err }, c.Close}
		},
		"twophase": func(t *testing.T) cluster {
			c, err := twophase.NewCluster(twophase.Config{T: 1, NumReaders: 1, RoundTimeout: round, OpTimeout: op})
			if err != nil {
				t.Fatal(err)
			}
			return cluster{c.Sim(), c.Config().S(), func() error { return c.Writer().Write("v") },
				func() error { _, err := c.Reader(0).Read(); return err }, c.Close}
		},
		"abd": func(t *testing.T) cluster {
			cfg := abd.Config{T: 1, NumReaders: 1, OpTimeout: op}
			c, err := abd.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return cluster{c.Sim(), cfg.S(), func() error { return c.Writer().Write("v") },
				func() error { _, err := c.Reader(0).Read(); return err }, c.Close}
		},
	} {
		t.Run(name, func(t *testing.T) {
			c := build(t)
			for i := 0; i < c.s; i++ {
				c.sim.HoldAllTo(types.ServerID(i))
			}
			errs := make(chan error, 2)
			go func() { errs <- c.write() }()
			go func() { errs <- c.read() }()
			time.Sleep(8 * round) // both parked; core's timer has run a grace cycle and resent
			t0 := time.Now()
			c.close()
			for i := 0; i < 2; i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, transport.ErrClosed) {
						t.Errorf("op ended with %v, want ErrClosed", err)
					}
				case <-time.After(bound):
					t.Fatalf("op still parked %v after Close", bound)
				}
			}
			if d := time.Since(t0); d > bound {
				t.Errorf("ops ended %v after Close, want within %v", d, bound)
			}
		})
	}
}
