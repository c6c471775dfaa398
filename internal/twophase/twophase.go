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
//   - servers keep no vw field;
//   - the writer ships the frozen set inside the W message instead of
//     the PW message, and servers act on it only when the sender is the
//     writer;
//   - the read fast predicate is fast(c) ::= |{i : w_i = c}| ≥ S−t−fr;
//   - the reader's write-back takes two rounds.
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
	"luckystore/internal/wire"
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
// machinery (core.View). FastPW and FastVW are set above S: the
// two-phase variant never uses them.
func (c Config) Thresholds() core.Thresholds {
	return core.Thresholds{
		S:         c.S(),
		Quorum:    c.Quorum(),
		Safe:      c.SafeThreshold(),
		FastPW:    c.S() + 1,
		FastVW:    c.S() + 1,
		InvalidPW: c.S() - c.B - c.T,
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

// Server is the server automaton of Figure 8: pw and w fields, per
// reader tsr and frozen slots; frozen sets arrive inside the writer's
// W message.
type Server struct {
	pw, w    types.Tagged
	frozen   map[types.ProcID]types.FrozenPair
	readerTS map[types.ProcID]types.ReaderTS
}

// NewServer creates a server in its initial state.
func NewServer() *Server {
	return &Server{
		pw:       types.Bottom(),
		w:        types.Bottom(),
		frozen:   make(map[types.ProcID]types.FrozenPair),
		readerTS: make(map[types.ProcID]types.ReaderTS),
	}
}

// State returns the stored pairs (tests only; the cluster serializes
// automaton access while running).
func (s *Server) State() (pw, w types.Tagged) { return s.pw, s.w }

// StepAppend implements node.Automaton.
func (s *Server) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	if wire.Validate(m) != nil {
		return out
	}
	switch v := m.(type) {
	case wire.PW:
		if !from.IsWriter() {
			return out
		}
		return s.onPW(from, v, out)
	case wire.Read:
		if !from.IsReader() {
			return out
		}
		return s.onRead(from, v, out)
	case wire.W:
		if !from.IsWriter() && !from.IsReader() {
			return out
		}
		return s.onW(from, v, out)
	default:
		return out
	}
}

// onPW: Fig. 8 lines 3–6 — update pw/w, report newread; the PW message
// of this variant carries no frozen set.
func (s *Server) onPW(from types.ProcID, m wire.PW, out []transport.Outgoing) []transport.Outgoing {
	update(&s.pw, m.PW)
	update(&s.w, m.W)
	var newread []types.ReadStamp
	for rj, tsr := range s.readerTS {
		if tsr > s.frozenTSR(rj) {
			newread = append(newread, types.ReadStamp{Reader: rj, TSR: tsr})
		}
	}
	return append(out, transport.Outgoing{To: from, Msg: wire.PWAck{TS: m.TS, NewRead: newread}})
}

// onRead: Fig. 8 lines 7–9.
func (s *Server) onRead(from types.ProcID, m wire.Read, out []transport.Outgoing) []transport.Outgoing {
	if m.TSR > s.readerTS[from] && m.Round > 1 {
		s.readerTS[from] = m.TSR
	}
	fz, ok := s.frozen[from]
	if !ok {
		fz = types.InitialFrozen()
	}
	return append(out, transport.Outgoing{To: from, Msg: wire.ReadAck{
		TSR: m.TSR, Round: m.Round,
		PW: s.pw, W: s.w, VW: types.Bottom(), Frozen: fz,
	}})
}

// onW: Fig. 8 lines 10–15 — round 1 updates pw, round 2 additionally
// w; the frozen set applies only when the sender is the writer.
func (s *Server) onW(from types.ProcID, m wire.W, out []transport.Outgoing) []transport.Outgoing {
	update(&s.pw, m.C)
	if m.Round > 1 {
		update(&s.w, m.C)
	}
	if from.IsWriter() {
		for _, f := range m.Frozen {
			if f.TSR >= s.readerTS[f.Reader] {
				s.frozen[f.Reader] = types.FrozenPair{PW: f.PW, TSR: f.TSR}
			}
		}
	}
	return append(out, transport.Outgoing{To: from, Msg: wire.WAck{Round: m.Round, Tag: m.Tag}})
}

func (s *Server) frozenTSR(rj types.ProcID) types.ReaderTS {
	if f, ok := s.frozen[rj]; ok {
		return f.TSR
	}
	return types.ReaderTS0
}

func update(local *types.Tagged, c types.Tagged) {
	if local.Less(c) {
		*local = c
	}
}

// Writer implements the WRITE of Figure 6: PW round, freezevalues,
// then exactly one W round carrying the frozen set — two round-trips,
// always. Its non-blocking half is a drive.Op, as core's is: Start emits
// the PW round, replies go in by Deliver until a quorum has answered,
// and Advance emits the W round, then completes.
type Writer struct {
	cfg   Config
	ep    transport.Endpoint
	drv   drive.Private
	rnd   drive.Round
	ts    types.TS
	pw, w types.Tagged
	fz    drive.Freezer

	// the WRITE in flight
	inW  bool         // the W round is, not the PW round
	acks []wire.PWAck // the PW round's, slot per server
}

// NewWriter creates the writer client.
func NewWriter(cfg Config, ep transport.Endpoint) *Writer {
	return &Writer{
		cfg: cfg, ep: ep, rnd: drive.NewRound(cfg.shape("twophase WRITE")),
		pw: types.Bottom(), w: types.Bottom(),
		acks: make([]wire.PWAck, cfg.S()),
	}
}

// Rounds reports the (constant) round-trip complexity of a WRITE in
// this variant.
func (w *Writer) Rounds() int { return 2 }

// Write stores v in exactly two communication round-trips.
func (w *Writer) Write(v types.Value) error {
	return w.drv.Wait(w.ep, w, func(now time.Time, out *[]transport.Outgoing) (bool, error) {
		return w.Start(now, v, out)
	})
}

// Start begins WRITE(v) at now with its PW round (Fig. 6 lines 3–6),
// decided at a quorum: the variant's writes are never "fast", so there
// is no timer verdict to wait for.
func (w *Writer) Start(now time.Time, v types.Value, out *[]transport.Outgoing) (done bool, err error) {
	if v == "" {
		return false, core.ErrBottomValue
	}
	w.rnd.Begin(now)
	w.inW = false
	w.ts++
	w.pw = types.Tagged{TS: w.ts, Val: v}
	w.rnd.Open(now, "PW round", false, nil, wire.PW{TS: w.ts, PW: w.pw, W: w.w}, out)
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

// Decided reports a quorum of the round's acks, or a failure.
func (w *Writer) Decided() bool { return w.rnd.Decided() }

// Deadline returns when Expire next has something to judge.
func (w *Writer) Deadline() time.Time { return w.rnd.Deadline() }

// Expire fires the round's loss timer at now (see drive.Round.Expire).
func (w *Writer) Expire(now time.Time, out *[]transport.Outgoing) { w.rnd.Expire(now, out) }

// Advance emits the W round (Fig. 6 lines 7–10: freeze values, then ship
// them inside the W message of this same write), then completes.
func (w *Writer) Advance(now time.Time, out *[]transport.Outgoing) (done bool, err error) {
	switch {
	case w.rnd.Err() != nil:
		return false, w.rnd.Err()
	case w.inW:
		return true, nil
	}
	frozen := w.fz.Freeze(&w.rnd, w.acks, w.cfg.B, w.pw, nil)
	w.w = w.pw
	w.inW = true
	w.rnd.Open(now, "W round", false, nil, wire.W{Round: 2, Tag: int64(w.ts), C: w.pw, Frozen: frozen}, out)
	return false, nil
}

// ReadMeta describes a completed two-phase READ.
type ReadMeta struct {
	TSR         types.ReaderTS
	QueryRounds int
	WroteBack   bool
	Returned    types.Tagged
}

// Rounds returns total round-trips (write-back adds two in this
// variant).
func (m ReadMeta) Rounds() int {
	if m.WroteBack {
		return m.QueryRounds + 2
	}
	return m.QueryRounds
}

// Fast reports a single round-trip READ.
func (m ReadMeta) Fast() bool { return m.Rounds() == 1 }

// Reader implements the READ of Figure 7, as a drive.Op (see Writer).
type Reader struct {
	cfg      Config
	ep       transport.Endpoint
	drv      drive.Private
	rnd      drive.Round
	id       types.ProcID
	tsr      types.ReaderTS
	lastMeta ReadMeta

	// the READ in flight
	view *core.View
	n    int          // query round; the query-round count once one selected
	wb   int          // write-back round in flight (1–2), 0 while querying
	sel  types.Tagged // the selected candidate
}

// NewReader creates reader client id.
func NewReader(cfg Config, id types.ProcID, ep transport.Endpoint) *Reader {
	return &Reader{cfg: cfg, ep: ep, id: id, rnd: drive.NewRound(cfg.shape("twophase READ"))}
}

// LastMeta returns metadata about the most recent READ.
func (r *Reader) LastMeta() ReadMeta { return r.lastMeta }

// Read returns the register value.
func (r *Reader) Read() (types.Tagged, error) {
	if err := r.drv.Wait(r.ep, r, r.Start); err != nil {
		return types.Tagged{}, err
	}
	return r.lastMeta.Returned, nil
}

// Start begins a READ at now: a fresh view and round 1, whose decision
// waits for the timer.
func (r *Reader) Start(now time.Time, out *[]transport.Outgoing) (done bool, err error) {
	r.rnd.Begin(now)
	r.tsr++
	r.view = core.NewViewWithThresholds(r.cfg.Thresholds(), r.tsr)
	r.n, r.wb = 0, 0
	return r.query(now, out)
}

// query emits the next READ round.
func (r *Reader) query(now time.Time, out *[]transport.Outgoing) (bool, error) {
	r.n++
	r.rnd.Open(now, "query round", r.n == 1, nil, wire.Read{TSR: r.tsr, Round: r.n}, out)
	return false, nil
}

// writeBack emits write-back round wb (Fig. 7 lines 24–26).
func (r *Reader) writeBack(now time.Time, wb int, out *[]transport.Outgoing) (bool, error) {
	r.wb = wb
	r.rnd.Open(now, "write-back round", false, nil, wire.W{Round: wb, Tag: int64(r.tsr), C: r.sel}, out)
	return false, nil
}

// Deliver folds one READ_ACK into the view, or counts one WRITE_ACK of
// a write-back round.
func (r *Reader) Deliver(env wire.Envelope) {
	if r.wb > 0 {
		a, ok := env.Msg.(wire.WAck)
		if ok && a.Round == r.wb && a.Tag == int64(r.tsr) {
			r.rnd.Ack(env.From)
		}
		return
	}
	a, ok := env.Msg.(wire.ReadAck)
	if !ok || a.TSR != r.tsr || wire.Validate(env.Msg) != nil || a.Round > r.n {
		return
	}
	if a.Round == r.n {
		r.rnd.Ack(env.From)
	}
	r.view.Update(env.From, a.Round, a.PW, a.W, a.VW, a.Frozen)
}

// Decided reports whether the round may end (see drive.Round.Decided).
func (r *Reader) Decided() bool { return r.rnd.Decided() }

// Deadline returns when Expire next has something to judge.
func (r *Reader) Deadline() time.Time { return r.rnd.Deadline() }

// Expire fires the round's timer at now (see drive.Round.Expire).
func (r *Reader) Expire(now time.Time, out *[]transport.Outgoing) { r.rnd.Expire(now, out) }

// Advance emits the next query round until a candidate is selected,
// then writes it back in two rounds unless it is fast (Fig. 7 line 19:
// fast(c) ::= |{i : w_i = c}| ≥ S−t−fr) after a first round, then
// returns it.
func (r *Reader) Advance(now time.Time, out *[]transport.Outgoing) (done bool, err error) {
	switch {
	case r.rnd.Err() != nil:
		return false, r.rnd.Err()
	case r.wb == 1:
		return r.writeBack(now, 2, out)
	case r.wb == 2:
		return r.complete(true)
	}
	c, ok := r.view.Select()
	if !ok {
		return r.query(now, out)
	}
	r.sel = c
	if r.view.CountW(c) < r.cfg.FastW() || r.n > 1 {
		return r.writeBack(now, 1, out)
	}
	return r.complete(false)
}

func (r *Reader) complete(wroteBack bool) (bool, error) {
	r.lastMeta = ReadMeta{TSR: r.tsr, QueryRounds: r.n, WroteBack: wroteBack, Returned: r.sel}
	return true, nil
}

// Cluster wires a two-phase deployment over a simulated network.
type Cluster struct {
	*core.VariantCluster[*Writer, *Reader]
	cfg Config
}

// NewCluster builds and starts a two-phase cluster.
func NewCluster(cfg Config, simOpts ...simnet.Option) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := core.NewVariantCluster(cfg.S(), cfg.NumReaders, func() node.Automaton { return NewServer() }, nil, simOpts,
		func(ep transport.Endpoint) *Writer { return NewWriter(cfg, ep) },
		func(i int, ep transport.Endpoint) *Reader { return NewReader(cfg, types.ReaderID(i), ep) })
	if err != nil {
		return nil, err
	}
	return &Cluster{c, cfg}, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }
