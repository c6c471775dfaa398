// Package regular implements the Appendix D variant (Proposition 7): a
// SWMR robust *regular* storage — property (4), the read hierarchy, is
// given up — in exchange for:
//
//   - tolerance of arbitrarily many malicious readers (servers ignore
//     every W message sent by a reader, so a forged write-back cannot
//     corrupt the register);
//   - maximal fast thresholds: every lucky WRITE is fast despite
//     fw = t − b failures and every lucky READ is fast despite fr = t
//     failures.
//
// Differences from the core algorithm: the W phase of a slow WRITE is a
// single round, readers never write back, and servers drop reader W
// messages. The WRITE is core's (core.Writer) built with one W round,
// the READ core's (core.Reader) built without the write-back, and the
// server core.NewRegularServer.
package regular

import (
	"fmt"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/drive"
	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/storage"
	"luckystore/internal/transport"
	"luckystore/internal/types"
)

// ErrOpTimeout is returned when an operation exceeds its bound: core's
// sentinel, each error naming the variant's phase.
var ErrOpTimeout = core.ErrOpTimeout

// Config holds the deployment parameters. The fast-write threshold is
// fixed at its maximum fw = t − b (Proposition 7), so there is no Fw
// knob.
type Config struct {
	T, B         int
	NumReaders   int
	RoundTimeout time.Duration
	OpTimeout    time.Duration
}

// S returns the server count 2t + b + 1 (optimal resilience).
func (c Config) S() int { return 2*c.T + c.B + 1 }

// Quorum returns S − t.
func (c Config) Quorum() int { return c.S() - c.T }

// SafeThreshold returns b + 1.
func (c Config) SafeThreshold() int { return c.B + 1 }

// Fw returns the fast-write failure threshold t − b.
func (c Config) Fw() int { return c.T - c.B }

// Fr returns the fast-read failure threshold t.
func (c Config) Fr() int { return c.T }

// FastWriteAcks returns S − fw = t + 2b + 1.
func (c Config) FastWriteAcks() int { return c.S() - c.Fw() }

// Validate checks the parameters.
func (c Config) Validate() error {
	switch {
	case c.T < 0:
		return fmt.Errorf("regular config: t = %d must be non-negative", c.T)
	case c.B < 0 || c.B > c.T:
		return fmt.Errorf("regular config: b = %d must satisfy 0 ≤ b ≤ t = %d", c.B, c.T)
	case c.NumReaders < 0:
		return fmt.Errorf("regular config: NumReaders = %d must be non-negative", c.NumReaders)
	}
	return nil
}

// coreConfig maps to the core Config for threshold reuse.
func (c Config) coreConfig() core.Config {
	return core.Config{T: c.T, B: c.B, Fw: c.Fw(), NumReaders: c.NumReaders}
}

// shape is the drive.Shape of this deployment's clients.
func (c Config) shape(name string) drive.Shape {
	return drive.Shape{Name: name, S: c.S(), Need: c.Quorum(), RoundTimeout: c.RoundTimeout, OpTimeout: c.OpTimeout}
}

// NewWriter creates the writer client: core's WRITE with the fast
// check at S − (t−b) PW_ACKs and, when slow, a single W round (Appendix
// D removes the third).
func NewWriter(cfg Config, ep transport.Endpoint) *core.Writer {
	return core.NewWriterOf(cfg.shape("regular WRITE"), cfg.B, cfg.FastWriteAcks(), 1, false, types.WriterID(), ep)
}

// NewReader creates reader client id: core's READ without the
// write-back (Appendix D).
func NewReader(cfg Config, id types.ProcID, ep transport.Endpoint) *core.Reader {
	return core.NewReaderOf(cfg.shape("regular READ"), cfg.coreConfig().Thresholds(), 0, id, ep)
}

// Cluster wires a regular-variant deployment over a simulated network.
type Cluster struct {
	*core.Deployment[*core.Writer, *core.Reader]
	cfg Config
}

// NewCluster builds and starts a regular-variant cluster. Servers keep
// their automata in memory only; see NewDurableCluster for disk-backed
// restarts.
func NewCluster(cfg Config, simOpts ...simnet.Option) (*Cluster, error) {
	return NewDurableCluster(cfg, nil, simOpts...)
}

// NewDurableCluster builds a regular-variant cluster whose servers
// write through storage backends from p (one per server) before
// acknowledging, and whose RestartServer recovers by WAL replay.
func NewDurableCluster(cfg Config, p storage.Provider, simOpts ...simnet.Option) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := core.Deploy(nil, simOpts, cfg.S(), func(int) node.Automaton { return core.NewRegularServer() }, p,
		1, func(_ types.ProcID, ep transport.Endpoint) *core.Writer { return NewWriter(cfg, ep) },
		cfg.NumReaders, func(id types.ProcID, ep transport.Endpoint) *core.Reader { return NewReader(cfg, id, ep) })
	if err != nil {
		return nil, fmt.Errorf("regular: %w", err)
	}
	return &Cluster{c, cfg}, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }
