// Package twophase implements the Appendix C variant of the protocol
// (Figures 6–8, Propositions 5 and 6): every WRITE completes in at most
// two communication round-trips and every lucky READ is fast despite up
// to fr actual failures, at the price of S = 2t + b + min(b, fr) + 1
// servers (one more than optimal when b, fr > 0).
//
// Differences from the core algorithm (internal/core):
//
//   - the W phase is a single round (round 2) and always runs — there
//     is no fast-write path, and the WRITE's timer serves loss recovery
//     only, never a decision;
//   - the writer ships the frozen set inside the W message instead of
//     the next PW message;
//   - the read fast predicate is fast(c) ::= |{i : w_i = c}| ≥ S−t−fr;
//   - the reader's write-back takes two rounds.
//
// The WRITE is core's (core.Writer), built with the first two, and the
// READ is core's (core.Reader), built with the last two. The server is
// core's too (core.Server): Fig. 8's server keeps no vw field, and no
// client of this variant sends the W round 3 that would set it, so vw
// stays ⊥; core's server applies a frozen set inside a W message only
// when the writer sends it, as Fig. 8 does.
package twophase

import (
	"fmt"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/drive"
	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
)

// ErrOpTimeout is returned when an operation exceeds its bound: core's
// sentinel, each error naming the variant's phase.
var ErrOpTimeout = core.ErrOpTimeout

// Config holds the deployment parameters of the two-phase variant.
type Config struct {
	// T and B are the failure thresholds (b ≤ t).
	T, B int
	// Fr is the number of actual failures despite which every lucky
	// READ must be fast (0 ≤ fr ≤ t).
	Fr         int
	NumReaders int
	// RoundTimeout is the READ round-1 timer, and every round's loss
	// timer; zero selects the default.
	RoundTimeout time.Duration
	// OpTimeout bounds one operation; zero selects the default.
	OpTimeout time.Duration
}

// S returns the server count 2t + b + min(b, fr) + 1 (Proposition 6).
func (c Config) S() int { return 2*c.T + c.B + min(c.B, c.Fr) + 1 }

// Quorum returns S − t.
func (c Config) Quorum() int { return c.S() - c.T }

// SafeThreshold returns b+1.
func (c Config) SafeThreshold() int { return c.B + 1 }

// FastW returns S − t − fr, the w-field witness count of the fast
// predicate (Fig. 7 line 5).
func (c Config) FastW() int { return c.S() - c.T - c.Fr }

// Thresholds adapts the configuration for the shared predicate
// machinery (core.View): the fast predicate is FastW alone, and FastPW
// and FastVW are set above S, where they never fire.
func (c Config) Thresholds() core.Thresholds {
	return core.Thresholds{
		S:         c.S(),
		Quorum:    c.Quorum(),
		Safe:      c.SafeThreshold(),
		FastPW:    c.S() + 1,
		FastVW:    c.S() + 1,
		InvalidPW: c.S() - c.B - c.T,
		FastW:     c.FastW(),
	}
}

// Validate checks the parameters.
func (c Config) Validate() error {
	switch {
	case c.T < 0:
		return fmt.Errorf("twophase config: t = %d must be non-negative", c.T)
	case c.B < 0 || c.B > c.T:
		return fmt.Errorf("twophase config: b = %d must satisfy 0 ≤ b ≤ t = %d", c.B, c.T)
	case c.Fr < 0 || c.Fr > c.T:
		return fmt.Errorf("twophase config: fr = %d must satisfy 0 ≤ fr ≤ t = %d", c.Fr, c.T)
	case c.NumReaders < 0:
		return fmt.Errorf("twophase config: NumReaders = %d must be non-negative", c.NumReaders)
	}
	return nil
}

// shape is the drive.Shape of this deployment's clients. Only READ
// round 1 waits for the timer; in every other round it serves loss
// recovery alone.
func (c Config) shape(name string) drive.Shape {
	return drive.Shape{Name: name, S: c.S(), Need: c.Quorum(), RoundTimeout: c.RoundTimeout, OpTimeout: c.OpTimeout}
}

// NewWriter creates the writer client: core's WRITE with Fig. 6's shape
// — never fast (the threshold is above S, so the PW round is decided at
// a quorum and its timer serves loss recovery only), one W round, and
// the frozen set shipped inside it (Fig. 6 lines 7–10).
func NewWriter(cfg Config, ep transport.Endpoint) *core.Writer {
	return core.NewWriterOf(cfg.shape("twophase WRITE"), cfg.B, cfg.S()+1, 1, true, types.WriterID(), ep)
}

// NewReader creates reader client id: core's READ with the Fig. 7 fast
// predicate (Thresholds) and a two-round write-back (Fig. 7 lines
// 24–26).
func NewReader(cfg Config, id types.ProcID, ep transport.Endpoint) *core.Reader {
	return core.NewReaderOf(cfg.shape("twophase READ"), cfg.Thresholds(), 2, id, ep)
}

// Cluster wires a two-phase deployment over a simulated network. Its
// servers are core's (core.NewServer).
type Cluster struct {
	*core.Deployment[*core.Writer, *core.Reader]
	cfg Config
}

// NewCluster builds and starts a two-phase cluster.
func NewCluster(cfg Config, simOpts ...simnet.Option) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := core.Deploy(nil, simOpts, cfg.S(), func(int) node.Automaton { return core.NewServer() }, nil,
		1, func(_ types.ProcID, ep transport.Endpoint) *core.Writer { return NewWriter(cfg, ep) },
		cfg.NumReaders, func(id types.ProcID, ep transport.Endpoint) *core.Reader { return NewReader(cfg, id, ep) })
	if err != nil {
		return nil, err
	}
	return &Cluster{c, cfg}, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }
