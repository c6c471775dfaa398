package core

import (
	"errors"
	"fmt"
	"time"

	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// ErrBottomValue rejects WRITE(⊥): the initial value is not a valid
// input for a WRITE (Section 2.2).
var ErrBottomValue = errors.New("cannot write the initial value ⊥ (empty value)")

// WriteMeta describes the last completed WRITE: the stamp it bound, how
// many communication round-trips it took and whether it used the fast
// path.
type WriteMeta struct {
	TS     types.TS
	Writer types.WID
	Rounds int
	Fast   bool
	PWAcks int // valid PW_ACKs held when the fast-path check ran
	// Queried reports that the MWMR stamp-query round ran (multi-writer
	// deployments only); it is included in Rounds.
	Queried bool
	// Contended reports that some server acknowledged the PW while
	// already holding a higher stamp — direct evidence another writer
	// raced this operation (wire v2's PW_ACK.Max).
	Contended bool
	// Spec reports that the operation completed on the speculative
	// multi-writer fast path: the stamp came from the writer's cache,
	// the query round was elided, and a full quorum acknowledged the
	// pre-write with zero NACKs (DESIGN.md §12).
	Spec bool
	// Ghost is the stamp of a speculative pre-write that was NACKed (or
	// starved of a quorum) and abandoned during this operation, zero
	// when none. The abandoned pair may linger in server pw fields, so
	// histories must record it as a failed write — concurrent readers
	// may legitimately return it (the crashed-writer ghost of Section 5,
	// inherited by aborted speculation; DESIGN.md §12).
	Ghost types.Stamp
}

// Stamp returns the composite stamp the WRITE bound.
func (m WriteMeta) Stamp() types.Stamp { return types.Stamp{Seq: m.TS, Writer: m.Writer} }

// Value returns the tagged pair the WRITE bound for value v.
func (m WriteMeta) Value(v types.Value) types.Tagged {
	return types.Tagged{TS: m.TS, W: m.Writer, Val: v}
}

// WriteFault scripts a crash-faulty writer, used by tests and by the
// experiments that reproduce the proof runs (Fig. 4) and the ghost
// scenario (Appendix E). A nil *WriteFault is a correct writer.
type WriteFault struct {
	// PWTo restricts the recipients of the PW message; nil means all
	// servers ("the messages sent by the writer are delivered only to
	// B1" steps are modeled as the crashed writer never sending them).
	PWTo []types.ProcID
	// CrashAfterPW stops the writer right after sending PW: the
	// operation never completes and the writer takes no further steps.
	CrashAfterPW bool
	// WTo restricts recipients of the W message per round (2 and 3).
	WTo map[int][]types.ProcID
	// CrashAfterW stops the writer right after sending the W message of
	// the given round.
	CrashAfterW map[int]bool
}

// Writer implements the WRITE protocol of Figure 1, generalized to
// multiple writers: each Writer has an explicit identity (part of the
// automaton contract, not a process-wide singleton), binds composite
// 〈seq, writer〉 stamps, and in multi-writer configurations runs a stamp
// query round before the pre-write so concurrent writers totally order
// their stamps. A Writer is not safe for concurrent use: each writer
// process invokes one operation at a time — which is also what makes
// its round state poolable. All per-operation machinery (timers, the
// PW_ACK set, the outgoing-message buffer, the freeze scratch) lives on
// the Writer and is reset per WRITE instead of reallocated, so a
// steady-state fast WRITE allocates nothing beyond the messages
// themselves (DESIGN.md §5).
//
// MWMR soundness hinges on one rule: a WRITE binds exactly one stamp,
// chosen before PW is sent and never revised. A writer that discovers
// mid-flight that it was outraced still completes its rounds at its own
// stamp — the operation simply linearizes before the higher-stamped
// write. Re-stamping after a contended PW would let one WRITE expose
// two stamps to readers, which breaks the stamp order's agreement with
// invocation order (a new-old-new inversion no stamp-based checker can
// see). See DESIGN.md §10.
type Writer struct {
	cfg Config
	ep  transport.Endpoint
	id  types.ProcID
	wid types.WID

	ts      types.TS    // sequence floor: seq of the last bound stamp
	last    types.Stamp // stamp of the last completed/installed write
	pw, w   types.Tagged
	readTS  map[types.ProcID]types.ReaderTS // nil until the first freeze
	frozen  []types.FrozenEntry
	crashed bool

	// Speculative fast-path state (multi-writer deployments only,
	// DESIGN.md §12). cachedMax is the highest stamp this writer has
	// observed on the wire — fed by query folds, PW_ACK/PW_NACK Max
	// fields and its own completed stamps. cacheOK records that the
	// cache reflects at least one quorum observation; calm is the
	// contention telemetry — cleared whenever an operation sees
	// contention evidence (a NACK or a higher Max in an ack), restored
	// by an uncontended completion. A WRITE speculates only when both
	// hold; correctness never depends on either (servers reject stale
	// speculative stamps), only the fast-path hit rate does.
	cachedMax types.Stamp
	cacheOK   bool
	calm      bool

	// serverIDs caches the all-servers broadcast target list.
	serverIDs []types.ProcID

	// pooled per-operation round state, reset per WRITE
	opTimer    *time.Timer
	roundTimer *time.Timer
	acks       []wire.PWAck // slot per server, valid where ackSeen
	ackSeen    []bool
	ackCount   int
	opTS       types.TS    // TS of the in-flight pre-write, matched by acceptPWAck
	nackSeen   bool        // a PW_NACK arrived for the in-flight speculative attempt
	nackMax    types.Stamp // highest Max any such NACK carried
	wackSeen   []bool
	outBuf     []transport.Outgoing
	qtsr       types.ReaderTS // stamp-query tag, incremented per query

	// freezeValues scratch, touched only when a slow READ is in
	// progress somewhere (nil/empty in steady state)
	reported map[types.ProcID][]types.ReaderTS
	dupSeen  map[types.ProcID]bool

	lastMeta WriteMeta
	stats    OpStats
}

// NewWriter creates the writer client with the given identity on the
// given endpoint. The id must be a writer ProcID (types.WriterIDN); its
// index becomes the writer component of every stamp this client binds.
func NewWriter(cfg Config, id types.ProcID, ep transport.Endpoint) *Writer {
	wi := id.WriterIndex()
	if wi < 0 {
		panic(fmt.Sprintf("core.NewWriter: %q is not a writer id", id))
	}
	return &Writer{
		cfg: cfg,
		ep:  ep,
		id:  id,
		wid: types.WID(wi),
		pw:  types.Bottom(),
		w:   types.Bottom(),
	}
}

// ID returns the writer's process id.
func (w *Writer) ID() types.ProcID { return w.id }

// Write stores v in the register. It returns once atomicity of the
// write is secured: after one round-trip on the fast path (S − fw
// PW_ACKs within the synchrony timer), otherwise after the two
// additional W rounds.
func (w *Writer) Write(v types.Value) error {
	m := w.cfg.Metrics
	if m == nil {
		return w.write(v, nil)
	}
	t0 := time.Now()
	err := w.write(v, nil)
	if err == nil {
		m.observeWrite(w.lastMeta, time.Since(t0))
	}
	return err
}

// WriteWithFault runs a WRITE with scripted crash behavior; it returns
// ErrCrashed at the scripted point and leaves the writer permanently
// crashed.
func (w *Writer) WriteWithFault(v types.Value, f *WriteFault) error { return w.write(v, f) }

// LastMeta returns metadata about the most recent completed WRITE.
func (w *Writer) LastMeta() WriteMeta { return w.lastMeta }

// WriteAt runs a WRITE that binds exactly the pair c — stamp included,
// writer component and all — instead of advancing this writer's own
// stamp. It is the handoff primitive for scale-out rebalancing
// (internal/router): when a key migrates between clusters, the
// destination writer installs the source's latest completed pair at its
// original stamp, keeping the key's stamp sequence monotonic across the
// move (the checker matches reads to writes by stamp, and servers only
// ever replace strictly older pairs, so re-binding an existing
// 〈stamp,val〉 is safe and idempotent). Because the stamp is replayed,
// not chosen, WriteAt never runs the MWMR query round.
//
// A pair at or below the writer's last bound stamp is a no-op: this
// writer already completed a WRITE at least as new, so the register
// already holds a pair ≥ c. Subsequent Writes continue from seq
// c.TS + 1.
func (w *Writer) WriteAt(c types.Tagged) error {
	if w.crashed {
		return ErrCrashed
	}
	if c.IsBottom() || c.Val == "" {
		return ErrBottomValue
	}
	if !w.last.Less(c.Stamp()) {
		return nil
	}
	opDeadline := resetTimer(&w.opTimer, w.cfg.opTimeout())
	defer opDeadline.Stop()
	return w.bind(c, nil, false, types.Stamp0, opDeadline)
}

// NextTS returns the timestamp the next WRITE will use (for tests).
func (w *Writer) NextTS() types.TS { return w.ts + 1 }

// resetTimer arms a pooled timer, creating it on first use. Go 1.23+
// timer semantics make Reset safe without draining: a pending fire from
// a previous operation is discarded by the Reset.
// retransmitGrace separates the synchrony verdict from loss recovery:
// a wait loop whose round timer expired below a quorum re-arms for
// this long before re-sending its round message. Scheduling jitter on
// a loaded machine routinely delays an in-flight ack past a round
// timer tuned to link delay; actual loss (a TCP conn silently
// swallowing one write after its peer restarts) does not resolve
// itself at any timescale. The grace keeps spurious retransmissions
// out of the message-complexity measurements while still unwedging a
// genuinely lost broadcast well inside any operation deadline.
// Retransmission itself is always safe: server transitions are
// idempotent max-merges, and duplicate messages are already part of
// the chaos fault model.
const retransmitGrace = 50 * time.Millisecond

func resetTimer(t **time.Timer, d time.Duration) *time.Timer {
	if *t == nil {
		*t = time.NewTimer(d)
	} else {
		(*t).Reset(d)
	}
	return *t
}

// resetAcks clears the PW_ACK/PW_NACK state for a new pre-write round.
func (w *Writer) resetAcks() {
	if w.acks == nil {
		w.acks = make([]wire.PWAck, w.cfg.S())
		w.ackSeen = make([]bool, w.cfg.S())
	} else {
		clear(w.acks)
		clear(w.ackSeen)
	}
	w.ackCount = 0
	w.nackSeen = false
	w.nackMax = types.Stamp0
}

func (w *Writer) write(v types.Value, f *WriteFault) error {
	if w.crashed {
		return ErrCrashed
	}
	if v == "" {
		return ErrBottomValue
	}
	opDeadline := resetTimer(&w.opTimer, w.cfg.opTimeout())
	defer opDeadline.Stop()

	// Choose the stamp. Single-writer deployments take the published
	// Fig. 1 path: advance the sequence, no extra round. Multi-writer
	// deployments totally order the stamp against concurrent writers —
	// speculatively from the cache when the telemetry allows it, by an
	// explicit quorum query otherwise. Once chosen, the stamp of a
	// (non-aborted) attempt is final, whatever the PW round later
	// reveals about the race.
	seq := w.ts
	queried := false
	var ghost types.Stamp
	if w.cfg.MW() {
		if f == nil && !w.cfg.NoSpec && w.cacheOK && w.calm {
			// Speculative fast path (DESIGN.md §12): bind one above the
			// cached maximum and let the servers arbitrate. A NACK or a
			// starved quorum aborts the attempt with no writer state
			// change and falls through to the query-round slow path.
			sseq := seq
			if sseq < w.cachedMax.Seq {
				sseq = w.cachedMax.Seq
			}
			c := types.Tagged{TS: sseq + 1, W: w.wid, Val: v}
			done, err := w.bindSpec(c, opDeadline)
			if err != nil || done {
				return err
			}
			// The abandoned pair may linger on servers that acknowledged
			// it before the verdict: record it as this operation's ghost
			// and retry strictly above it, so the completed write can
			// never share the ghost's stamp.
			ghost = c.Stamp()
			if seq < c.TS {
				seq = c.TS
			}
		}
		qmax, err := w.queryStamp(opDeadline)
		if err != nil {
			return err
		}
		if seq < qmax.Seq {
			seq = qmax.Seq
		}
		w.foldCache(qmax)
		w.cacheOK = true
		queried = true
	}
	c := types.Tagged{TS: seq + 1, W: w.wid, Val: v}
	return w.bind(c, f, queried, ghost, opDeadline)
}

// foldCache raises the cached maximum stamp to at least s.
func (w *Writer) foldCache(s types.Stamp) {
	if w.cachedMax.Less(s) {
		w.cachedMax = s
	}
}

// queryStamp is the MWMR stamp-discovery round: broadcast a round-1
// READ (servers answer a writer's round-1 query statelessly — it never
// touches the freezing machinery) and fold the plain maximum over every
// stamp in a quorum of acks.
//
// The plain maximum — not a (b+1)-st-highest fold — is deliberate. A
// completed WRITE is guaranteed into only one honest server of the
// quorum intersection, so demanding b+1 witnesses for a stamp could
// discard the latest completed write and re-issue its sequence number —
// a lost update. The cost is that a single malicious server can inflate
// the sequence component; that burns int64 headroom but never breaks
// atomicity, since stamps only need to keep growing (DESIGN.md §10).
func (w *Writer) queryStamp(opDeadline *time.Timer) (types.Stamp, error) {
	w.qtsr++
	if err := w.sendTo(w.allServers(), wire.Read{TSR: w.qtsr, Round: 1}); err != nil {
		return types.Stamp0, err
	}
	if w.wackSeen == nil {
		w.wackSeen = make([]bool, w.cfg.S())
	} else {
		clear(w.wackSeen)
	}
	// Retransmit the query after the retransmitGrace cycle while below
	// a quorum: a round-1 READ is stateless on servers, so re-asking
	// is always safe.
	timer := resetTimer(&w.roundTimer, w.cfg.roundTimeout())
	defer timer.Stop()
	inGrace := false
	got := 0
	qmax := types.Stamp0
	for got < w.cfg.Quorum() {
		select {
		case <-timer.C:
			if inGrace {
				w.cfg.Metrics.retransmit()
				if err := w.sendTo(w.allServers(), wire.Read{TSR: w.qtsr, Round: 1}); err != nil {
					return types.Stamp0, err
				}
			} else {
				w.cfg.Metrics.starved()
			}
			inGrace = true
			timer = resetTimer(&w.roundTimer, retransmitGrace)
		case env, ok := <-w.ep.Recv():
			if !ok {
				return types.Stamp0, transport.ErrClosed
			}
			a, isAck := env.Msg.(wire.ReadAck)
			if !isAck || !validServer(w.cfg, env.From) || a.TSR != w.qtsr || a.Round != 1 || wire.Validate(env.Msg) != nil {
				continue
			}
			if i := env.From.Index(); !w.wackSeen[i] {
				w.wackSeen[i] = true
				got++
				if s := a.PW.Stamp(); qmax.Less(s) {
					qmax = s
				}
				if s := a.W.Stamp(); qmax.Less(s) {
					qmax = s
				}
				if s := a.VW.Stamp(); qmax.Less(s) {
					qmax = s
				}
			}
		case <-opDeadline.C:
			return types.Stamp0, fmt.Errorf("WRITE stamp query: %w", ErrOpTimeout)
		}
	}
	return qmax, nil
}

// bind runs the PW and W phases of Fig. 1 at the already-chosen pair c.
// The stamp is immutable from here on (see the Writer doc): contention
// observed in the PW_ACKs is recorded in the meta, never acted on.
// ghost is the stamp of an aborted speculative attempt earlier in the
// same operation (zero when none), threaded into the meta so drivers
// can record it as a failed write.
func (w *Writer) bind(c types.Tagged, f *WriteFault, queried bool, ghost types.Stamp, opDeadline *time.Timer) error {
	// Pre-write phase (Fig. 1 lines 3–4): ship PW with the frozen set
	// left over from the previous WRITE's freezevalues().
	w.ts = c.TS
	w.last = c.Stamp()
	w.pw = c
	w.opTS = c.TS
	pwMsg := wire.PW{TS: c.TS, PW: w.pw, W: w.w, Frozen: w.frozen}
	// The synchrony timer runs from the start of the round, not from the
	// end of the broadcast: a send may be a socket write on this
	// goroutine (transport.Coalescer writes through).
	timer := resetTimer(&w.roundTimer, w.cfg.roundTimeout())
	defer timer.Stop()
	if err := w.sendTo(w.pwTargets(f), pwMsg); err != nil {
		return err
	}
	if f != nil && f.CrashAfterPW {
		w.crashed = true
		return ErrCrashed
	}

	// Fig. 1 line 5: wait for S−t valid PW_ACKs and timer expiry (early
	// exit when all S servers have answered — nothing more can arrive).
	w.resetAcks()
	expired := false
	inGrace := false
	for w.ackCount < w.cfg.S() && !(w.ackCount >= w.cfg.Quorum() && expired) {
		select {
		case env, ok := <-w.ep.Recv():
			if !ok {
				return transport.ErrClosed
			}
			w.acceptPWAck(env)
		case <-timer.C:
			expired = true
			// Below a quorum the PW may have been lost on a stale
			// conn; the merge is idempotent, so after the
			// retransmitGrace cycle re-send (same targets, same
			// frozen set) rather than wedge until the operation
			// deadline.
			if w.ackCount < w.cfg.Quorum() {
				if inGrace {
					w.cfg.Metrics.retransmit()
					if err := w.sendTo(w.pwTargets(f), pwMsg); err != nil {
						return err
					}
				} else {
					w.cfg.Metrics.starved()
				}
				inGrace = true
				timer = resetTimer(&w.roundTimer, retransmitGrace)
			}
		case <-opDeadline.C:
			return fmt.Errorf("WRITE(ts=%d) pre-write phase: %w", w.ts, ErrOpTimeout)
		}
	}
	w.drainPWAcks()

	// Fig. 1 lines 6–7: record the value as written, then detect slow
	// READs and freeze values for them.
	w.frozen = nil
	w.w = w.pw
	w.freezeValues()

	meta := WriteMeta{TS: c.TS, Writer: c.W, PWAcks: w.ackCount,
		Queried: queried, Contended: w.sawContention(c), Ghost: ghost}
	// A NACKed speculative attempt earlier in this operation counts as
	// contention evidence even when the retry's own acks are clean: one
	// full query-path operation must complete uncontended before the
	// writer speculates again.
	w.noteCompletion(c, meta.Contended || !ghost.IsZero())
	rounds := 1
	if queried {
		rounds = 2 // the stamp query is a round-trip too
	}

	// Fig. 1 line 8: fast path.
	if w.ackCount >= w.cfg.FastWriteAcks() {
		meta.Rounds, meta.Fast = rounds, true
		w.lastMeta = meta
		w.stats.record(meta.Rounds, true)
		return nil
	}

	if err := w.writePhase(c, f, opDeadline); err != nil {
		return err
	}
	meta.Rounds = rounds + 2
	w.lastMeta = meta
	w.stats.record(meta.Rounds, false)
	return nil
}

// writePhase runs the write phase of Fig. 1 lines 9–11: two more W
// rounds at the already pre-written pair c.
func (w *Writer) writePhase(c types.Tagged, f *WriteFault, opDeadline *time.Timer) error {
	for round := 2; round <= 3; round++ {
		msg := wire.W{Round: round, Tag: int64(c.TS), C: w.pw}
		targets := w.wTargets(f, round)
		if err := w.sendTo(targets, msg); err != nil {
			return err
		}
		if f != nil && f.CrashAfterW[round] {
			w.crashed = true
			return ErrCrashed
		}
		if err := w.awaitWAcks(round, int64(c.TS), targets, msg, opDeadline); err != nil {
			return err
		}
	}
	return nil
}

// noteCompletion feeds the speculative fast path's telemetry at the
// point the pre-write quorum is in: the counted acks' Max fields and
// the bound stamp itself raise the stamp cache (a quorum observation,
// so the cache becomes trustworthy), and the contention verdict sets
// the calm flag for the next operation's speculation decision.
func (w *Writer) noteCompletion(c types.Tagged, contended bool) {
	for i, seen := range w.ackSeen {
		if seen {
			w.foldCache(w.acks[i].Max)
		}
	}
	w.foldCache(c.Stamp())
	w.cacheOK = true
	w.calm = !contended
}

// bindSpec attempts the speculative pre-write of DESIGN.md §12 at the
// already-chosen pair c: PW is sent with Spec set and — unlike bind —
// no writer state is committed up front, because the attempt may be
// rejected. done reports that the operation completed (the quorum came
// back all-ACK); done == false with a nil error means the attempt was
// aborted — a server NACKed the stamp, or the quorum starved — and the
// caller must fall back to the query-round slow path, treating c as a
// ghost (servers that acknowledged before the verdict keep the pair).
func (w *Writer) bindSpec(c types.Tagged, opDeadline *time.Timer) (done bool, err error) {
	w.stats.SpecAttempts++
	w.opTS = c.TS
	pwMsg := wire.PW{TS: c.TS, PW: c, W: w.w, Frozen: w.frozen, Spec: true}
	timer := resetTimer(&w.roundTimer, w.cfg.roundTimeout()) // from the round's start, as in bind
	defer timer.Stop()
	if err := w.sendTo(w.allServers(), pwMsg); err != nil {
		return false, err
	}

	// Wait as bind does, with two extra exits: a PW_NACK decides the
	// attempt immediately, and a starved quorum (two timer cycles below
	// S−t acks) abandons it rather than retransmitting — the slow path
	// owns loss recovery, and a stale spec stamp would only be NACKed
	// again anyway.
	w.resetAcks()
	expired := false
	inGrace := false
	for w.ackCount < w.cfg.S() && !(w.ackCount >= w.cfg.Quorum() && expired) && !w.nackSeen {
		select {
		case env, ok := <-w.ep.Recv():
			if !ok {
				return false, transport.ErrClosed
			}
			w.acceptPWAck(env)
		case <-timer.C:
			expired = true
			if w.ackCount < w.cfg.Quorum() {
				if inGrace {
					w.calm = false
					w.stats.SpecFlips++
					return false, nil
				}
				w.cfg.Metrics.starved()
				inGrace = true
				timer = resetTimer(&w.roundTimer, retransmitGrace)
			}
		case <-opDeadline.C:
			return false, fmt.Errorf("WRITE(ts=%d) speculative pre-write: %w", c.TS, ErrOpTimeout)
		}
	}
	w.drainPWAcks()
	if w.nackSeen {
		// Some server already held a stamp at or above c. The NACK made
		// no server state change; the writer made none either, so the
		// abort is clean — remember the evidence and flip to the slow
		// path.
		w.foldCache(w.nackMax)
		w.calm = false
		w.stats.SpecFlips++
		return false, nil
	}

	// A quorum acknowledged with zero NACKs: every acking server
	// installed c as strictly newest, and by quorum intersection any
	// previously completed WRITE's stamp sat in at least one honest
	// server of this quorum — which would have NACKed. So c outranks
	// every write that completed before this one began, exactly the
	// guarantee the query round buys, and the commit proceeds as in
	// bind.
	w.ts = c.TS
	w.last = c.Stamp()
	w.pw = c
	w.frozen = nil
	w.w = w.pw
	w.freezeValues()

	meta := WriteMeta{TS: c.TS, Writer: c.W, PWAcks: w.ackCount,
		Contended: w.sawContention(c), Spec: true}
	w.noteCompletion(c, meta.Contended)
	w.stats.SpecOps++

	if w.ackCount >= w.cfg.FastWriteAcks() {
		meta.Rounds, meta.Fast = 1, true
		w.lastMeta = meta
		w.stats.record(1, true)
		return true, nil
	}
	if err := w.writePhase(c, nil, opDeadline); err != nil {
		return true, err
	}
	meta.Rounds = 3
	w.lastMeta = meta
	w.stats.record(3, false)
	return true, nil
}

// sawContention reports whether any counted PW_ACK's Max exceeds the
// bound stamp: the server already held a higher stamp when it
// acknowledged, direct evidence another writer raced this operation.
// v1 peers leave Max zero, which can never exceed a bound stamp.
func (w *Writer) sawContention(c types.Tagged) bool {
	st := c.Stamp()
	for i, seen := range w.ackSeen {
		if seen && st.Less(w.acks[i].Max) {
			return true
		}
	}
	return false
}

// acceptPWAck records a structurally valid PW_ACK or PW_NACK tagged
// with the in-flight pre-write's TS. Acks from servers not yet counted
// enter the ack set; a NACK (speculative attempts only — servers never
// NACK a non-spec PW) raises the nack flag that aborts bindSpec. Stale
// replies to an abandoned speculative attempt carry its old TS and are
// dropped here: the slow-path retry binds strictly above the ghost, so
// opTS always moves on before new acks are awaited.
func (w *Writer) acceptPWAck(env wire.Envelope) {
	// Validate the envelope's interface value, not an unboxed copy —
	// re-boxing it would allocate on every ack.
	switch a := env.Msg.(type) {
	case wire.PWAck:
		if !validServer(w.cfg, env.From) || a.TS != w.opTS || wire.Validate(env.Msg) != nil {
			return
		}
		if i := env.From.Index(); !w.ackSeen[i] {
			w.ackSeen[i] = true
			w.acks[i] = a
			w.ackCount++
		}
	case wire.PWNack:
		if !validServer(w.cfg, env.From) || a.TS != w.opTS || wire.Validate(env.Msg) != nil {
			return
		}
		w.nackSeen = true
		if w.nackMax.Less(a.Max) {
			w.nackMax = a.Max
		}
	}
}

// drainPWAcks consumes acks that are already queued when the wait
// condition is met, so the fast-path check of line 8 sees every reply
// that arrived within the timer.
func (w *Writer) drainPWAcks() {
	for {
		select {
		case env, ok := <-w.ep.Recv():
			if !ok {
				return
			}
			w.acceptPWAck(env)
		default:
			return
		}
	}
}

// freezeValues implements Fig. 1 lines 13–15: for every reader reported
// by at least b+1 servers with a READ timestamp above the writer's
// recorded one, advance the record to the (b+1)-st highest reported
// timestamp and freeze the current pre-written pair for that reader.
//
// The steady state — no slow READ in progress anywhere, so every
// NewRead set is empty — is detected with one scan and skips the
// tallying machinery entirely. The slow path reuses the writer's
// scratch map across operations and scans small NewRead sets linearly
// for duplicates (a map is built only for implausibly large, i.e.
// forged-but-valid, sets).
func (w *Writer) freezeValues() {
	any := false
	for i, seen := range w.ackSeen {
		if seen && len(w.acks[i].NewRead) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	if w.reported == nil {
		w.reported = make(map[types.ProcID][]types.ReaderTS)
	} else {
		clear(w.reported)
	}
	for i, seen := range w.ackSeen {
		if !seen {
			continue
		}
		newread := w.acks[i].NewRead
		for j, rs := range newread {
			if w.duplicateStamp(newread, j) {
				continue // a malicious server may repeat a reader; count it once
			}
			if rs.TSR > w.readTS[rs.Reader] {
				w.reported[rs.Reader] = append(w.reported[rs.Reader], rs.TSR)
			}
		}
	}
	for rj, tsrs := range w.reported {
		if len(tsrs) < w.cfg.SafeThreshold() {
			continue
		}
		nth, ok := types.NthHighest(tsrs, w.cfg.B)
		if !ok {
			continue
		}
		if w.readTS == nil {
			w.readTS = make(map[types.ProcID]types.ReaderTS)
		}
		w.readTS[rj] = nth
		w.frozen = append(w.frozen, types.FrozenEntry{Reader: rj, PW: w.pw, TSR: nth})
	}
}

// smallNewReadSet is the size up to which duplicate detection scans the
// prefix linearly; correct servers report at most one stamp per reader
// with an outstanding slow READ, so real sets are tiny.
const smallNewReadSet = 8

// duplicateStamp reports whether newread[j] repeats an earlier entry's
// reader. Large (necessarily forged) sets switch to the reusable map so
// a Byzantine server cannot force a quadratic scan.
func (w *Writer) duplicateStamp(newread []types.ReadStamp, j int) bool {
	rj := newread[j].Reader
	if len(newread) <= smallNewReadSet {
		for _, prev := range newread[:j] {
			if prev.Reader == rj {
				return true
			}
		}
		return false
	}
	if j == 0 {
		if w.dupSeen == nil {
			w.dupSeen = make(map[types.ProcID]bool, len(newread))
		} else {
			clear(w.dupSeen)
		}
	}
	if w.dupSeen[rj] {
		return true
	}
	w.dupSeen[rj] = true
	return false
}

// awaitWAcks waits for S−t valid WRITE_ACKs for the given round,
// retransmitting msg to targets after the retransmitGrace cycle while
// below a quorum (W rounds are idempotent on servers).
func (w *Writer) awaitWAcks(round int, tag int64, targets []types.ProcID, msg wire.Message, opDeadline *time.Timer) error {
	if w.wackSeen == nil {
		w.wackSeen = make([]bool, w.cfg.S())
	} else {
		clear(w.wackSeen)
	}
	timer := resetTimer(&w.roundTimer, w.cfg.roundTimeout())
	inGrace := false
	got := 0
	for got < w.cfg.Quorum() {
		select {
		case env, ok := <-w.ep.Recv():
			if !ok {
				return transport.ErrClosed
			}
			a, isAck := env.Msg.(wire.WAck)
			if !isAck || !validServer(w.cfg, env.From) || a.Round != round || a.Tag != tag {
				continue
			}
			if i := env.From.Index(); !w.wackSeen[i] {
				w.wackSeen[i] = true
				got++
			}
		case <-timer.C:
			if inGrace {
				w.cfg.Metrics.retransmit()
				if err := w.sendTo(targets, msg); err != nil {
					return err
				}
			} else {
				w.cfg.Metrics.starved()
			}
			inGrace = true
			timer = resetTimer(&w.roundTimer, retransmitGrace)
		case <-opDeadline.C:
			return fmt.Errorf("WRITE(ts=%d) W round %d: %w", w.ts, round, ErrOpTimeout)
		}
	}
	return nil
}

// sendTo fans m out to targets through the writer's reusable outgoing
// buffer.
func (w *Writer) sendTo(targets []types.ProcID, m wire.Message) error {
	out := w.outBuf[:0]
	for _, id := range targets {
		out = append(out, transport.Outgoing{To: id, Msg: m})
	}
	w.outBuf = out
	return transport.SendAll(w.ep, out)
}

// allServers returns the cached all-servers broadcast list.
func (w *Writer) allServers() []types.ProcID {
	if w.serverIDs == nil {
		w.serverIDs = types.ServerIDs(w.cfg.S())
	}
	return w.serverIDs
}

func (w *Writer) pwTargets(f *WriteFault) []types.ProcID {
	if f != nil && f.PWTo != nil {
		return f.PWTo
	}
	return w.allServers()
}

func (w *Writer) wTargets(f *WriteFault, round int) []types.ProcID {
	if f != nil && f.WTo != nil && f.WTo[round] != nil {
		return f.WTo[round]
	}
	return w.allServers()
}

// validServer reports whether id names one of the cluster's S servers;
// clients ignore messages claiming other origins.
func validServer(cfg Config, id types.ProcID) bool {
	return id.IsServer() && id.Index() < cfg.S()
}
