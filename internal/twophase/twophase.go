// Package twophase implements the Appendix C variant of the protocol
// (Figures 6–8, Propositions 5 and 6): every WRITE completes in at most
// two communication round-trips and every lucky READ is fast despite up
// to fr actual failures, at the price of S = 2t + b + min(b, fr) + 1
// servers (one more than optimal when b, fr > 0).
//
// Differences from the core algorithm (internal/core):
//
//   - the W phase is a single round (round 2) and always runs — there
//     is no fast-write path and no timer in the WRITE;
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
	// RoundTimeout is the READ round-1 timer; zero selects the default.
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

// Step implements node.Automaton.
func (s *Server) Step(from types.ProcID, m wire.Message) []transport.Outgoing {
	if wire.Validate(m) != nil {
		return nil
	}
	switch v := m.(type) {
	case wire.PW:
		if !from.IsWriter() {
			return nil
		}
		return s.onPW(from, v)
	case wire.Read:
		if !from.IsReader() {
			return nil
		}
		return s.onRead(from, v)
	case wire.W:
		if !from.IsWriter() && !from.IsReader() {
			return nil
		}
		return s.onW(from, v)
	default:
		return nil
	}
}

// onPW: Fig. 8 lines 3–6 — update pw/w, report newread; the PW message
// of this variant carries no frozen set.
func (s *Server) onPW(from types.ProcID, m wire.PW) []transport.Outgoing {
	update(&s.pw, m.PW)
	update(&s.w, m.W)
	var newread []types.ReadStamp
	for rj, tsr := range s.readerTS {
		if tsr > s.frozenTSR(rj) {
			newread = append(newread, types.ReadStamp{Reader: rj, TSR: tsr})
		}
	}
	return []transport.Outgoing{{To: from, Msg: wire.PWAck{TS: m.TS, NewRead: newread}}}
}

// onRead: Fig. 8 lines 7–9.
func (s *Server) onRead(from types.ProcID, m wire.Read) []transport.Outgoing {
	if m.TSR > s.readerTS[from] && m.Round > 1 {
		s.readerTS[from] = m.TSR
	}
	fz, ok := s.frozen[from]
	if !ok {
		fz = types.InitialFrozen()
	}
	return []transport.Outgoing{{To: from, Msg: wire.ReadAck{
		TSR: m.TSR, Round: m.Round,
		PW: s.pw, W: s.w, VW: types.Bottom(), Frozen: fz,
	}}}
}

// onW: Fig. 8 lines 10–15 — round 1 updates pw, round 2 additionally
// w; the frozen set applies only when the sender is the writer.
func (s *Server) onW(from types.ProcID, m wire.W) []transport.Outgoing {
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
	return []transport.Outgoing{{To: from, Msg: wire.WAck{Round: m.Round, Tag: m.Tag}}}
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
// always. Its non-blocking half is a drive.Op, as core's is: Start sends
// the PW round, replies go in by Deliver until a quorum has answered
// (Expire only fails the WRITE past its deadline), and Advance sends the
// W round, then completes.
type Writer struct {
	cfg    Config
	ep     transport.Endpoint
	drv    drive.Private
	ts     types.TS
	pw, w  types.Tagged
	readTS map[types.ProcID]types.ReaderTS
	frozen []types.FrozenEntry

	// the WRITE in flight
	inW      bool                        // the W round is, not the PW round
	acks     map[types.ProcID]wire.PWAck // the PW round's
	wacks    map[types.ProcID]bool       // the W round's
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

// Rounds reports the (constant) round-trip complexity of a WRITE in
// this variant.
func (w *Writer) Rounds() int { return 2 }

// Write stores v in exactly two communication round-trips.
func (w *Writer) Write(v types.Value) error {
	done, err := w.Start(v)
	return w.drv.Wait(w.ep, w, done, err)
}

// Start begins WRITE(v) with its PW round (Fig. 6 lines 3–6): no timer —
// the variant's writes are never "fast", so there is nothing to wait
// extra for.
func (w *Writer) Start(v types.Value) (done bool, err error) {
	if v == "" {
		return false, core.ErrBottomValue
	}
	w.deadline = time.Now().Add(w.cfg.opTimeout())
	w.inW, w.err = false, nil
	w.acks = make(map[types.ProcID]wire.PWAck, w.cfg.S())
	w.ts++
	w.pw = types.Tagged{TS: w.ts, Val: v}
	return false, broadcast(w.ep, w.cfg.S(), wire.PW{TS: w.ts, PW: w.pw, W: w.w})
}

// Deliver counts one ack of the round in flight.
func (w *Writer) Deliver(env wire.Envelope) {
	if w.inW {
		a, ok := env.Msg.(wire.WAck)
		if ok && validServer(w.cfg, env.From) && a.Round == 2 && a.Tag == int64(w.ts) {
			w.wacks[env.From] = true
		}
		return
	}
	a, ok := env.Msg.(wire.PWAck)
	if !ok || !validServer(w.cfg, env.From) || a.TS != w.ts || wire.Validate(a) != nil {
		return
	}
	if _, dup := w.acks[env.From]; !dup {
		w.acks[env.From] = a
	}
}

// Decided reports a quorum of the round's acks, or a failure.
func (w *Writer) Decided() bool {
	if w.inW {
		return w.err != nil || len(w.wacks) >= w.cfg.Quorum()
	}
	return w.err != nil || len(w.acks) >= w.cfg.Quorum()
}

// Deadline is the operation's.
func (w *Writer) Deadline() time.Time { return w.deadline }

// Expire fails the WRITE past its deadline.
func (w *Writer) Expire(now time.Time) {
	switch {
	case now.Before(w.deadline):
	case w.inW:
		w.err = fmt.Errorf("twophase WRITE(ts=%d) W round: %w", w.ts, ErrOpTimeout)
	default:
		w.err = fmt.Errorf("twophase WRITE(ts=%d) PW round: %w", w.ts, ErrOpTimeout)
	}
}

// Advance sends the W round (Fig. 6 lines 7–10: freeze values, then ship
// them inside the W message of this same write), then completes.
func (w *Writer) Advance() (done bool, err error) {
	switch {
	case w.err != nil:
		return false, w.err
	case w.inW:
		return true, nil
	}
	w.freezeValues(w.acks)
	w.w = w.pw
	frozenOut := w.frozen
	w.frozen = nil
	w.inW = true
	w.wacks = make(map[types.ProcID]bool, w.cfg.S())
	return false, broadcast(w.ep, w.cfg.S(), wire.W{Round: 2, Tag: int64(w.ts), C: w.pw, Frozen: frozenOut})
}

// freezeValues mirrors Fig. 6 lines 13–15 (identical rule to the core
// algorithm).
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
	id       types.ProcID
	tsr      types.ReaderTS
	lastMeta ReadMeta

	// the READ in flight
	view      *core.View
	rnd       int                   // query round; the query-round count once one selected
	wb        int                   // write-back round in flight (1–2), 0 while querying
	sel       types.Tagged          // the selected candidate
	roundAcks map[types.ProcID]bool // the round's
	round     time.Time             // round 1's timer
	expired   bool                  // ... has fired
	deadline  time.Time             // the operation's
	err       error
}

// NewReader creates reader client id.
func NewReader(cfg Config, id types.ProcID, ep transport.Endpoint) *Reader {
	return &Reader{cfg: cfg, ep: ep, id: id}
}

// LastMeta returns metadata about the most recent READ.
func (r *Reader) LastMeta() ReadMeta { return r.lastMeta }

// Read returns the register value.
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
	r.view = core.NewViewWithThresholds(r.cfg.Thresholds(), r.tsr)
	r.rnd, r.wb, r.expired, r.err = 0, 0, false, nil
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

// writeBack sends write-back round wb (Fig. 7 lines 24–26).
func (r *Reader) writeBack(wb int) error {
	r.wb = wb
	r.roundAcks = make(map[types.ProcID]bool, r.cfg.S())
	return broadcast(r.ep, r.cfg.S(), wire.W{Round: wb, Tag: int64(r.tsr), C: r.sel})
}

// Deliver folds one READ_ACK into the view, or counts one WRITE_ACK of
// a write-back round.
func (r *Reader) Deliver(env wire.Envelope) {
	if r.wb > 0 {
		a, ok := env.Msg.(wire.WAck)
		if ok && env.From.IsServer() && a.Round == r.wb && a.Tag == int64(r.tsr) {
			r.roundAcks[env.From] = true
		}
		return
	}
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

// Decided reports whether the round may end: all S acks of a query
// round, or a quorum — in round 1 once the timer fired; a quorum of a
// write-back round; or a failure.
func (r *Reader) Decided() bool {
	n := len(r.roundAcks)
	if r.wb > 0 {
		return r.err != nil || n >= r.cfg.Quorum()
	}
	return r.err != nil || n >= r.cfg.S() || (n >= r.cfg.Quorum() && (r.rnd > 1 || r.expired))
}

// Deadline returns when Expire next has something to judge.
func (r *Reader) Deadline() time.Time {
	if r.rnd == 1 && r.wb == 0 && !r.expired && r.round.Before(r.deadline) {
		return r.round
	}
	return r.deadline
}

// Expire fires round 1's timer, or fails the READ past its deadline.
func (r *Reader) Expire(now time.Time) {
	switch {
	case !now.Before(r.deadline) && r.wb > 0:
		r.err = fmt.Errorf("twophase READ(tsr=%d) write-back round %d: %w", r.tsr, r.wb, ErrOpTimeout)
	case !now.Before(r.deadline):
		r.err = fmt.Errorf("twophase READ(tsr=%d) round %d: %w", r.tsr, r.rnd, ErrOpTimeout)
	case r.rnd == 1 && !now.Before(r.round):
		r.expired = true
	}
}

// Advance sends the next query round until a candidate is selected,
// then writes it back in two rounds unless it is fast (Fig. 7 line 19:
// fast(c) ::= |{i : w_i = c}| ≥ S−t−fr) after a first round, then
// returns it.
func (r *Reader) Advance() (done bool, err error) {
	switch {
	case r.err != nil:
		return false, r.err
	case r.wb == 1:
		return false, r.writeBack(2)
	case r.wb == 2:
		return r.complete(true)
	}
	c, ok := r.view.Select()
	if !ok {
		return false, r.query()
	}
	r.sel = c
	if r.view.CountW(c) < r.cfg.FastW() || r.rnd > 1 {
		return false, r.writeBack(1)
	}
	return r.complete(false)
}

func (r *Reader) complete(wroteBack bool) (bool, error) {
	r.lastMeta = ReadMeta{TSR: r.tsr, QueryRounds: r.rnd, WroteBack: wroteBack, Returned: r.sel}
	return true, nil
}

// Cluster wires a two-phase deployment over a simulated network. Its
// embedded fleet carries the servers' fault hooks.
type Cluster struct {
	*core.Servers
	cfg     Config
	sim     *simnet.Network
	writer  *Writer
	readers []*Reader
}

// NewCluster builds and starts a two-phase cluster.
func NewCluster(cfg Config, simOpts ...simnet.Option) (*Cluster, error) {
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
		return NewServer(), nil, nil
	}, nil, nil); err != nil {
		return nil, err
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
