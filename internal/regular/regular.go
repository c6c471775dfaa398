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
// messages (core.NewRegularServer).
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

func (c Config) roundTimeout() time.Duration {
	if c.RoundTimeout > 0 {
		return c.RoundTimeout
	}
	return core.DefaultRoundTimeout
}

func (c Config) opTimeout() time.Duration {
	if c.OpTimeout > 0 {
		return c.OpTimeout
	}
	return core.DefaultOpTimeout
}

// Writer implements the Appendix D WRITE: PW round with the fast check
// at S − (t−b) acks, then a single W round when slow. Its non-blocking
// half is a drive.Op, as core's is: Start sends the PW round, replies go
// in by Deliver and the timer's verdicts by Expire until the round is
// Decided, and Advance completes the WRITE or sends the W round.
type Writer struct {
	cfg      Config
	ep       transport.Endpoint
	drv      drive.Private
	ts       types.TS
	pw, w    types.Tagged
	readTS   map[types.ProcID]types.ReaderTS
	frozen   []types.FrozenEntry
	lastMeta core.WriteMeta

	// the WRITE in flight
	inW      bool                        // the W round is, not the PW round
	acks     map[types.ProcID]wire.PWAck // the PW round's
	wacks    map[types.ProcID]bool       // the W round's
	round    time.Time                   // the PW round's timer
	expired  bool                        // ... has fired
	deadline time.Time                   // the operation's
	err      error
}

// NewWriter creates the writer client.
func NewWriter(cfg Config, ep transport.Endpoint) *Writer {
	return &Writer{
		cfg: cfg, ep: ep,
		pw: types.Bottom(), w: types.Bottom(),
		readTS: make(map[types.ProcID]types.ReaderTS),
	}
}

// LastMeta returns metadata about the most recent WRITE.
func (w *Writer) LastMeta() core.WriteMeta { return w.lastMeta }

// Write stores v: one round-trip when lucky and at most t−b failures,
// otherwise two.
func (w *Writer) Write(v types.Value) error {
	done, err := w.Start(v)
	return w.drv.Wait(w.ep, w, done, err)
}

// Start begins WRITE(v): it sends the PW round and arms its timer.
func (w *Writer) Start(v types.Value) (done bool, err error) {
	if v == "" {
		return false, core.ErrBottomValue
	}
	w.deadline = time.Now().Add(w.cfg.opTimeout())
	w.inW, w.expired, w.err = false, false, nil
	w.acks = make(map[types.ProcID]wire.PWAck, w.cfg.S())
	w.ts++
	w.pw = types.Tagged{TS: w.ts, Val: v}
	if err := broadcast(w.ep, w.cfg.S(), wire.PW{TS: w.ts, PW: w.pw, W: w.w, Frozen: w.frozen}); err != nil {
		return false, err
	}
	w.round = time.Now().Add(w.cfg.roundTimeout())
	return false, nil
}

// Deliver counts one ack of the round in flight.
func (w *Writer) Deliver(env wire.Envelope) {
	if !w.inW {
		w.acceptPWAck(env)
		return
	}
	a, ok := env.Msg.(wire.WAck)
	if ok && validServer(w.cfg, env.From) && a.Round == 2 && a.Tag == int64(w.ts) {
		w.wacks[env.From] = true
	}
}

// Decided reports whether the round in flight may end: all S PW_ACKs,
// or a quorum once the timer fired; a quorum of W acks; or a failure.
func (w *Writer) Decided() bool {
	if w.inW {
		return w.err != nil || len(w.wacks) >= w.cfg.Quorum()
	}
	n := len(w.acks)
	return w.err != nil || n >= w.cfg.S() || (n >= w.cfg.Quorum() && w.expired)
}

// Deadline returns when Expire next has something to judge.
func (w *Writer) Deadline() time.Time {
	if !w.inW && !w.expired && w.round.Before(w.deadline) {
		return w.round
	}
	return w.deadline
}

// Expire fires the PW round's timer, or fails the WRITE past its
// deadline.
func (w *Writer) Expire(now time.Time) {
	switch {
	case !now.Before(w.deadline) && w.inW:
		w.err = fmt.Errorf("regular WRITE(ts=%d) W round: %w", w.ts, ErrOpTimeout)
	case !now.Before(w.deadline):
		w.err = fmt.Errorf("regular WRITE(ts=%d) PW round: %w", w.ts, ErrOpTimeout)
	case !now.Before(w.round):
		w.expired = true
	}
}

// Advance completes the WRITE — fast on S − fw PW_ACKs — or sends its
// single W round (Appendix D removes the third).
func (w *Writer) Advance() (done bool, err error) {
	switch {
	case w.err != nil:
		return false, w.err
	case w.inW:
		w.lastMeta = core.WriteMeta{TS: w.ts, Rounds: 2, Fast: false, PWAcks: len(w.acks)}
		return true, nil
	}
	w.frozen = nil
	w.w = w.pw
	w.freezeValues(w.acks)
	if len(w.acks) >= w.cfg.FastWriteAcks() {
		w.lastMeta = core.WriteMeta{TS: w.ts, Rounds: 1, Fast: true, PWAcks: len(w.acks)}
		return true, nil
	}
	w.inW = true
	w.wacks = make(map[types.ProcID]bool, w.cfg.S())
	return false, broadcast(w.ep, w.cfg.S(), wire.W{Round: 2, Tag: int64(w.ts), C: w.pw})
}

func (w *Writer) acceptPWAck(env wire.Envelope) {
	a, ok := env.Msg.(wire.PWAck)
	if !ok || !validServer(w.cfg, env.From) || a.TS != w.ts || wire.Validate(a) != nil {
		return
	}
	if _, dup := w.acks[env.From]; !dup {
		w.acks[env.From] = a
	}
}

func (w *Writer) freezeValues(acks map[types.ProcID]wire.PWAck) {
	reported := make(map[types.ProcID][]types.ReaderTS)
	for _, a := range acks {
		seen := make(map[types.ProcID]bool, len(a.NewRead))
		for _, rs := range a.NewRead {
			if seen[rs.Reader] {
				continue
			}
			seen[rs.Reader] = true
			if rs.TSR > w.readTS[rs.Reader] {
				reported[rs.Reader] = append(reported[rs.Reader], rs.TSR)
			}
		}
	}
	for rj, tsrs := range reported {
		if len(tsrs) < w.cfg.SafeThreshold() {
			continue
		}
		nth, ok := types.NthHighest(tsrs, w.cfg.B)
		if !ok {
			continue
		}
		w.readTS[rj] = nth
		w.frozen = append(w.frozen, types.FrozenEntry{Reader: rj, PW: w.pw, TSR: nth})
	}
}

// broadcast sends m to every server.
func broadcast(ep transport.Endpoint, s int, m wire.Message) error {
	out := make([]transport.Outgoing, s)
	for i := range out {
		out[i] = transport.Outgoing{To: types.ServerID(i), Msg: m}
	}
	return transport.SendAll(ep, out)
}

// validServer reports whether id names one of the S servers.
func validServer(cfg Config, id types.ProcID) bool {
	return id.IsServer() && id.Index() < cfg.S()
}

// ReadMeta describes a completed regular READ (no write-back exists in
// this variant, so Rounds == QueryRounds).
type ReadMeta struct {
	TSR         types.ReaderTS
	QueryRounds int
	Returned    types.Tagged
}

// Rounds returns the READ's round-trip count.
func (m ReadMeta) Rounds() int { return m.QueryRounds }

// Fast reports a single round-trip READ.
func (m ReadMeta) Fast() bool { return m.Rounds() == 1 }

// Reader implements the Appendix D READ: the core READ loop without
// the write-back, as a drive.Op (see Writer).
type Reader struct {
	cfg      Config
	ep       transport.Endpoint
	drv      drive.Private
	id       types.ProcID
	tsr      types.ReaderTS
	lastMeta ReadMeta

	// the READ in flight
	view      *core.View
	rnd       int
	roundAcks map[types.ProcID]bool
	round     time.Time // round 1's timer
	expired   bool      // ... has fired
	deadline  time.Time // the operation's
	err       error
}

// NewReader creates reader client id.
func NewReader(cfg Config, id types.ProcID, ep transport.Endpoint) *Reader {
	return &Reader{cfg: cfg, ep: ep, id: id}
}

// LastMeta returns metadata about the most recent READ.
func (r *Reader) LastMeta() ReadMeta { return r.lastMeta }

// Read returns the register value with regular semantics.
func (r *Reader) Read() (types.Tagged, error) {
	done, err := r.Start()
	if err := r.drv.Wait(r.ep, r, done, err); err != nil {
		return types.Tagged{}, err
	}
	return r.lastMeta.Returned, nil
}

// Start begins a READ: a fresh view and round 1, with its timer.
func (r *Reader) Start() (done bool, err error) {
	r.deadline = time.Now().Add(r.cfg.opTimeout())
	r.tsr++
	r.view = core.NewViewWithThresholds(r.cfg.coreConfig().Thresholds(), r.tsr)
	r.rnd, r.expired, r.err = 0, false, nil
	return false, r.query()
}

// query sends the next READ round.
func (r *Reader) query() error {
	r.rnd++
	r.roundAcks = make(map[types.ProcID]bool, r.cfg.S())
	if err := broadcast(r.ep, r.cfg.S(), wire.Read{TSR: r.tsr, Round: r.rnd}); err != nil {
		return err
	}
	if r.rnd == 1 {
		r.round = time.Now().Add(r.cfg.roundTimeout())
	}
	return nil
}

// Deliver folds one READ_ACK into the view.
func (r *Reader) Deliver(env wire.Envelope) {
	a, ok := env.Msg.(wire.ReadAck)
	if !ok || !validServer(r.cfg, env.From) ||
		a.TSR != r.tsr || wire.Validate(a) != nil || a.Round > r.rnd {
		return
	}
	if a.Round == r.rnd {
		r.roundAcks[env.From] = true
	}
	r.view.Update(env.From, a.Round, a.PW, a.W, a.VW, a.Frozen)
}

// Decided reports whether the round may end: all S acks, or a quorum —
// in round 1 once the timer fired; or a failure.
func (r *Reader) Decided() bool {
	n := len(r.roundAcks)
	return r.err != nil || n >= r.cfg.S() || (n >= r.cfg.Quorum() && (r.rnd > 1 || r.expired))
}

// Deadline returns when Expire next has something to judge.
func (r *Reader) Deadline() time.Time {
	if r.rnd == 1 && !r.expired && r.round.Before(r.deadline) {
		return r.round
	}
	return r.deadline
}

// Expire fires round 1's timer, or fails the READ past its deadline.
func (r *Reader) Expire(now time.Time) {
	switch {
	case !now.Before(r.deadline):
		r.err = fmt.Errorf("regular READ(tsr=%d) round %d: %w", r.tsr, r.rnd, ErrOpTimeout)
	case r.rnd == 1 && !now.Before(r.round):
		r.expired = true
	}
}

// Advance returns the selected candidate, or sends the next round.
func (r *Reader) Advance() (done bool, err error) {
	if r.err != nil {
		return false, r.err
	}
	if c, ok := r.view.Select(); ok {
		r.lastMeta = ReadMeta{TSR: r.tsr, QueryRounds: r.rnd, Returned: c}
		return true, nil
	}
	return false, r.query()
}

// Cluster wires a regular-variant deployment over a simulated network.
// Its embedded fleet carries the servers' fault hooks.
type Cluster struct {
	*core.Servers
	cfg     Config
	sim     *simnet.Network
	writer  *Writer
	readers []*Reader
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
	ids := append(types.ServerIDs(cfg.S()), types.WriterID())
	ids = append(ids, types.ReaderIDs(cfg.NumReaders)...)
	sim, err := simnet.New(ids, simOpts...)
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, sim: sim}
	if c.Servers, err = core.NewServers(sim, cfg.S(), func(int) (node.Automaton, []node.Automaton, func(wire.Message) int) {
		return core.NewRegularServer(), nil, nil
	}, p, nil); err != nil {
		return nil, fmt.Errorf("regular: %w", err)
	}
	wep, err := sim.Endpoint(types.WriterID())
	if err != nil {
		c.Close()
		return nil, err
	}
	c.writer = NewWriter(cfg, wep)
	for i := 0; i < cfg.NumReaders; i++ {
		rep, err := sim.Endpoint(types.ReaderID(i))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.readers = append(c.readers, NewReader(cfg, types.ReaderID(i), rep))
	}
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Writer returns the writer client.
func (c *Cluster) Writer() *Writer { return c.writer }

// Reader returns the i-th reader client.
func (c *Cluster) Reader(i int) *Reader { return c.readers[i] }

// Sim returns the underlying simulated network.
func (c *Cluster) Sim() *simnet.Network { return c.sim }
