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
// single round, readers never write back — the READ is core's
// (core.Reader) built without the write-back — and servers drop reader
// W messages (core.NewRegularServer).
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
	"luckystore/internal/wire"
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

// Writer implements the Appendix D WRITE: PW round with the fast check
// at S − (t−b) acks, then a single W round when slow. Its non-blocking
// half is a drive.Op, as core's is: Start emits the PW round, replies go
// in by Deliver and the timer's verdicts by Expire until the round is
// Decided, and Advance completes the WRITE or emits the W round.
type Writer struct {
	cfg      Config
	ep       transport.Endpoint
	drv      drive.Private
	rnd      drive.Round
	ts       types.TS
	pw, w    types.Tagged
	fz       drive.Freezer
	frozen   []types.FrozenEntry
	lastMeta core.WriteMeta

	// the WRITE in flight
	inW    bool         // the W round is, not the PW round
	acks   []wire.PWAck // the PW round's, slot per server
	pwAcks int          // ... how many counted
}

// NewWriter creates the writer client.
func NewWriter(cfg Config, ep transport.Endpoint) *Writer {
	return &Writer{
		cfg: cfg, ep: ep, rnd: drive.NewRound(cfg.shape("regular WRITE")),
		pw: types.Bottom(), w: types.Bottom(),
		acks: make([]wire.PWAck, cfg.S()),
	}
}

// LastMeta returns metadata about the most recent WRITE.
func (w *Writer) LastMeta() core.WriteMeta { return w.lastMeta }

// Write stores v: one round-trip when lucky and at most t−b failures,
// otherwise two.
func (w *Writer) Write(v types.Value) error {
	return w.drv.Wait(w.ep, w, func(now time.Time, out *[]transport.Outgoing) (bool, error) {
		return w.Start(now, v, out)
	})
}

// Start begins WRITE(v) at now: it emits the PW round, whose decision
// waits for the timer.
func (w *Writer) Start(now time.Time, v types.Value, out *[]transport.Outgoing) (done bool, err error) {
	if v == "" {
		return false, core.ErrBottomValue
	}
	w.rnd.Begin(now)
	w.inW = false
	w.ts++
	w.pw = types.Tagged{TS: w.ts, Val: v}
	w.rnd.Open(now, "PW round", true, nil, wire.PW{TS: w.ts, PW: w.pw, W: w.w, Frozen: w.frozen}, out)
	return false, nil
}

// Deliver counts one ack of the round in flight.
func (w *Writer) Deliver(env wire.Envelope) {
	switch a := env.Msg.(type) {
	case wire.PWAck:
		if w.inW || a.TS != w.ts || wire.Validate(env.Msg) != nil {
			return
		}
		if i, first := w.rnd.Ack(env.From); first {
			w.acks[i] = a
		}
	case wire.WAck:
		if w.inW && a.Round == 2 && a.Tag == int64(w.ts) {
			w.rnd.Ack(env.From)
		}
	}
}

// Decided reports whether the round in flight may end (see
// drive.Round.Decided).
func (w *Writer) Decided() bool { return w.rnd.Decided() }

// Deadline returns when Expire next has something to judge.
func (w *Writer) Deadline() time.Time { return w.rnd.Deadline() }

// Expire fires the round's timer at now (see drive.Round.Expire).
func (w *Writer) Expire(now time.Time, out *[]transport.Outgoing) { w.rnd.Expire(now, out) }

// Advance completes the WRITE — fast on S − fw PW_ACKs — or emits its
// single W round (Appendix D removes the third).
func (w *Writer) Advance(now time.Time, out *[]transport.Outgoing) (done bool, err error) {
	switch {
	case w.rnd.Err() != nil:
		return false, w.rnd.Err()
	case w.inW:
		w.lastMeta = core.WriteMeta{TS: w.ts, Rounds: w.rnd.Rounds(), PWAcks: w.pwAcks}
		return true, nil
	}
	w.w = w.pw
	w.frozen = w.fz.Freeze(&w.rnd, w.acks, w.cfg.B, w.pw, nil)
	if w.pwAcks = w.rnd.Acks(); w.pwAcks >= w.cfg.FastWriteAcks() {
		w.lastMeta = core.WriteMeta{TS: w.ts, Rounds: w.rnd.Rounds(), Fast: true, PWAcks: w.pwAcks}
		return true, nil
	}
	w.inW = true
	w.rnd.Open(now, "W round", false, nil, wire.W{Round: 2, Tag: int64(w.ts), C: w.pw}, out)
	return false, nil
}

// NewReader creates reader client id: core's READ without the
// write-back (Appendix D).
func NewReader(cfg Config, id types.ProcID, ep transport.Endpoint) *core.Reader {
	return core.NewReaderOf(cfg.shape("regular READ"), cfg.coreConfig().Thresholds(), 0, id, ep)
}

// Cluster wires a regular-variant deployment over a simulated network.
type Cluster struct {
	*core.Deployment[*Writer, *core.Reader]
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
		1, func(_ types.ProcID, ep transport.Endpoint) *Writer { return NewWriter(cfg, ep) },
		cfg.NumReaders, func(id types.ProcID, ep transport.Endpoint) *core.Reader { return NewReader(cfg, id, ep) })
	if err != nil {
		return nil, fmt.Errorf("regular: %w", err)
	}
	return &Cluster{c, cfg}, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }
