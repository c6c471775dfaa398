package core

import (
	"errors"
	"fmt"
	"time"

	"luckystore/internal/drive"
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
	// Rounds is every round the WRITE opened, counted as each was
	// (drive.Round.Rounds): a fast WRITE has Rounds == 1.
	Rounds int
	Fast   bool
	PWAcks int // valid PW_ACKs held when the fast-path check ran
	// Queried reports that the MWMR stamp-query round ran (multi-writer
	// deployments only); it is included in Rounds.
	Queried bool
	// Contended reports that some server acknowledged the PW while
	// already holding a higher stamp — direct evidence another writer
	// raced this operation (PW_ACK.Max).
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

// Writer implements the WRITE protocol of Figure 1, and with it the
// WRITE of every protocol of its family: Appendix C's two-phase WRITE
// and Appendix D's regular one run the same pre-write and differ only
// in their round shape, their fast threshold and the length of the
// write phase that follows it (NewWriterOf).
//
// It is generalized to multiple writers: each Writer has an explicit
// identity (part of the automaton contract, not a process-wide
// singleton), binds composite 〈seq, writer〉 stamps, and in multi-writer
// configurations runs a stamp query round before the pre-write so
// concurrent writers totally order their stamps. A Writer is not safe
// for concurrent use: each writer process invokes one operation at a
// time — which is also what makes its round state poolable. All
// per-operation machinery (the round, the PW_ACK slots, the freeze
// scratch) lives on the Writer and is reset per WRITE instead of
// reallocated, so a steady-state fast WRITE allocates nothing beyond
// the messages themselves (DESIGN.md §5).
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
	ep  transport.Endpoint
	id  types.ProcID
	wid types.WID

	// The protocol's shape (NewWriterOf): the S servers, b of the
	// freeze's b+1 witnesses, the PW_ACKs of a fast WRITE (above S:
	// never fast), the W rounds of a slow one, and whether its frozen
	// set rides them instead of the next WRITE's pre-write. mw and spec
	// are core's multi-writer stamp binding (Config.Writers,
	// Config.NoSpec).
	s, b, fastAcks, wRounds int
	freezeInW, mw, spec     bool
	metrics                 *Metrics

	ts      types.TS    // sequence floor: seq of the last bound stamp
	last    types.Stamp // stamp of the last completed/installed write
	pw, w   types.Tagged
	fz      drive.Freezer
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

	// pooled per-operation round state, reset per WRITE (op) and per
	// round (rnd)
	op       writeOp
	rnd      drive.Round
	drv      drive.Private  // runs the blocking calls over ep
	acks     []wire.PWAck   // slot per server, valid where rnd counted a pre-write's ack
	opTS     types.TS       // TS of the in-flight pre-write, matched by acceptPWAck
	nackSeen bool           // a PW_NACK arrived for the in-flight pre-write
	nackMax  types.Stamp    // highest Max any such NACK carried
	qtsr     types.ReaderTS // stamp-query tag, incremented per query

	lastMeta WriteMeta
	stats    OpStats
}

// NewWriter creates the writer client with the given identity on the
// given endpoint. The id must be a writer ProcID (types.WriterIDN); its
// index becomes the writer component of every stamp this client binds.
func NewWriter(cfg Config, id types.ProcID, ep transport.Endpoint) *Writer {
	w := NewWriterOf(cfg.shape("WRITE"), cfg.B, cfg.FastWriteAcks(), 2, false, id, ep)
	w.mw, w.spec, w.metrics = cfg.MW(), !cfg.NoSpec, cfg.Metrics
	return w
}

// NewWriterOf creates writer client id of a protocol of the Fig. 1
// family: rounds of shape sh, the freeze of Fig. 1 lines 13–15 at b+1
// witnesses, a fast WRITE at fastAcks PW_ACKs (above sh.S: never fast),
// and a slow one that runs wRounds W rounds — two in Fig. 1, one in
// Appendices C and D — with the frozen set riding them when freezeInW
// (Fig. 6) and the next WRITE's pre-write otherwise. The pre-write
// waits for the timer only when a fast outcome is possible.
func NewWriterOf(sh drive.Shape, b, fastAcks, wRounds int, freezeInW bool, id types.ProcID, ep transport.Endpoint) *Writer {
	wi := id.WriterIndex()
	if wi < 0 {
		panic(fmt.Sprintf("core.NewWriter: %q is not a writer id", id))
	}
	return &Writer{
		ep:        ep,
		id:        id,
		wid:       types.WID(wi),
		s:         sh.S,
		b:         b,
		fastAcks:  fastAcks,
		wRounds:   wRounds,
		freezeInW: freezeInW,
		pw:        types.Bottom(),
		w:         types.Bottom(),
		rnd:       drive.NewRound(sh),
	}
}

// ID returns the writer's process id.
func (w *Writer) ID() types.ProcID { return w.id }

// writePhase names the round a WRITE has in flight between two calls.
type writePhase uint8

const (
	phaseIdle  writePhase = iota // no operation in flight
	phaseQuery                   // MWMR stamp query (a round-1 READ)
	phaseSpec                    // speculative pre-write (DESIGN.md §12)
	phasePW                      // pre-write at the bound stamp (Fig. 1 lines 3–5)
	phaseW                       // a W round, from round 2 (Fig. 1 lines 9–11)
)

func (p writePhase) String() string {
	return [...]string{"idle", "stamp query", "speculative pre-write", "pre-write phase", "W round"}[p]
}

// writeOp is everything a WRITE carries from one call to the next: a
// WRITE is Start (choose the stamp's path, emit the first round) and
// then, round by round, Deliver the replies and Expire the deadlines
// until the round is Decided, then Advance (complete or emit the next
// round). The blocking calls hand that to a driver over the writer's
// endpoint (internal/drive), as internal/kv hands many keys' operations
// to one. Everything else a round needs — its acks, timer and deadlines
// — is the Writer's pooled drive.Round.
type writeOp struct {
	phase   writePhase
	round   int // W round in flight, from 2
	val     types.Value
	c       types.Tagged // pair in flight: the speculative attempt's, then the bound one
	fault   *WriteFault
	seq     types.TS    // floor the bound stamp's sequence must exceed
	qmax    types.Stamp // fold of the stamp query's acks
	queried bool
	ghost   types.Stamp         // aborted speculative stamp (WriteMeta.Ghost)
	meta    WriteMeta           // assembled when the pre-write commits, published on completion
	starved bool                // a speculative pre-write's grace ran out below a quorum
	frozen  []types.FrozenEntry // the freeze the W rounds carry (freezeInW)

	t0 time.Time // invocation time when Config.Metrics observes the op
}

var errNoOp = errors.New("core: Advance without an operation in flight")

// Write stores v in the register. It returns once atomicity of the
// write is secured: after one round-trip on the fast path (S − fw
// PW_ACKs within the synchrony timer), otherwise after the two
// additional W rounds.
func (w *Writer) Write(v types.Value) error {
	return w.drv.Wait(w.ep, w, func(now time.Time, out *[]transport.Outgoing) (bool, error) {
		return w.Start(now, v, out)
	})
}

// Start begins WRITE(v) at now: it binds the stamp (or opens the round
// that will — the speculative pre-write or the MWMR stamp query), starts
// the operation's and the round's deadlines and appends the first round
// to out. The operation then advances by Deliver/Expire/Advance until a
// call reports done or an error; the writer takes no other operation
// meanwhile.
func (w *Writer) Start(now time.Time, v types.Value, out *[]transport.Outgoing) (done bool, err error) {
	var t0 time.Time
	if w.metrics != nil {
		t0 = now
	}
	return w.settle(w.start(now, v, nil, t0, out))
}

// Deliver folds one reply into the round in flight by the ack rule of
// its phase. It never blocks: with Decided, Deadline, Expire and Advance
// it is the non-blocking half a driver of many operations steps from one
// goroutine (DESIGN.md §5).
func (w *Writer) Deliver(env wire.Envelope) {
	switch w.op.phase {
	case phaseQuery:
		w.acceptQueryAck(env)
	case phaseSpec, phasePW:
		w.acceptPWAck(env)
	case phaseW:
		w.acceptWAck(env)
	}
}

// Decided reports whether the round in flight has what its wait
// condition asks for — the replies and, for a pre-write, the timer's
// verdict — or has failed; either way Advance acts on it next.
func (w *Writer) Decided() bool {
	return w.op.starved || (w.op.phase == phaseSpec && w.nackSeen) || w.rnd.Decided()
}

// Short is the round's (drive.Round.Short), but 1 in a speculative
// pre-write, which one PW_NACK decides.
func (w *Writer) Short() int {
	switch {
	case w.Decided():
		return 0
	case w.op.phase == phaseSpec:
		return 1
	}
	return w.rnd.Short()
}

// Deadline returns when Expire next has something to judge (see
// drive.Round.Deadline).
func (w *Writer) Deadline() time.Time { return w.rnd.Deadline() }

// Expire is the timer of Fig. 1 line 5 firing at now, judged against
// every reply delivered so far (see drive.Round.Expire): the verdict at
// a quorum, the resend of a round still below one after the grace
// (appended to out), and
// ErrOpTimeout past the operation deadline. A speculative attempt whose
// grace ran out is abandoned instead (starved): the slow path owns loss
// recovery, and a stale speculative stamp would only be NACKed again
// anyway.
func (w *Writer) Expire(now time.Time, out *[]transport.Outgoing) {
	switch w.op.phase {
	case phaseIdle:
	case phaseSpec:
		if w.rnd.Lapse(now) {
			w.op.starved = true
		}
	default:
		w.rnd.Expire(now, out)
	}
}

// Advance acts on a decided round at now: it completes the WRITE — done,
// with LastMeta describing it — or appends the next round to out, or
// returns the round's failure.
func (w *Writer) Advance(now time.Time, out *[]transport.Outgoing) (done bool, err error) {
	return w.settle(w.advance(now, out))
}

// WriteWithFault runs a WRITE with scripted crash behavior; it returns
// ErrCrashed at the scripted point and leaves the writer permanently
// crashed.
func (w *Writer) WriteWithFault(v types.Value, f *WriteFault) error {
	return w.drv.Wait(w.ep, w, func(now time.Time, out *[]transport.Outgoing) (bool, error) {
		return w.settle(w.start(now, v, f, time.Time{}, out))
	})
}

// LastMeta returns metadata about the most recent completed WRITE.
func (w *Writer) LastMeta() WriteMeta { return w.lastMeta }

// Rounds returns the round-trips the most recent completed WRITE ran.
func (w *Writer) Rounds() int { return w.lastMeta.Rounds }

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
	return w.drv.Wait(w.ep, w, func(now time.Time, out *[]transport.Outgoing) (bool, error) {
		return w.StartAt(now, c, out)
	})
}

// StartAt begins WriteAt(c) as Start begins Write; a pair WriteAt would
// skip is done at once, with no round emitted.
func (w *Writer) StartAt(now time.Time, c types.Tagged, out *[]transport.Outgoing) (done bool, err error) {
	if w.crashed {
		return false, ErrCrashed
	}
	if c.IsBottom() || c.Val == "" {
		return false, ErrBottomValue
	}
	if !w.last.Less(c.Stamp()) {
		return true, nil
	}
	w.begin(now, writeOp{})
	return w.settle(w.emitPW(now, c, out))
}

// begin installs a fresh operation and starts its deadline at now.
func (w *Writer) begin(now time.Time, op writeOp) {
	w.rnd.Begin(now)
	w.op = op
}

// settle passes a Start/Advance verdict through, retiring the operation
// once it is over either way.
func (w *Writer) settle(done bool, err error) (bool, error) {
	if (done || err != nil) && w.op.phase != phaseIdle {
		w.op = writeOp{}
	}
	return done, err
}

// start opens a WRITE: it chooses how the stamp will be bound and sends
// the round that does it. Single-writer deployments take the published
// Fig. 1 path: advance the sequence, no extra round. Multi-writer
// deployments totally order the stamp against concurrent writers —
// speculatively from the cache when the telemetry allows it, by an
// explicit quorum query otherwise. Once chosen, the stamp of a
// (non-aborted) attempt is final, whatever the PW round later reveals
// about the race.
func (w *Writer) start(now time.Time, v types.Value, f *WriteFault, t0 time.Time, out *[]transport.Outgoing) (bool, error) {
	if w.crashed {
		return false, ErrCrashed
	}
	if v == "" {
		return false, ErrBottomValue
	}
	w.begin(now, writeOp{val: v, fault: f, seq: w.ts, t0: t0})
	switch {
	case !w.mw:
		return w.emitPW(now, types.Tagged{TS: w.ts + 1, W: w.wid, Val: v}, out)
	case f == nil && w.spec && w.cacheOK && w.calm:
		// Speculative fast path (DESIGN.md §12): bind one above the
		// cached maximum and let the servers arbitrate. A NACK or a
		// starved quorum aborts the attempt with no writer state
		// change and falls back to the query-round slow path.
		return w.emitSpec(now, types.Tagged{TS: max(w.ts, w.cachedMax.Seq) + 1, W: w.wid, Val: v}, out)
	default:
		return w.emitQuery(now, out)
	}
}

// advance acts on the decided round in flight.
func (w *Writer) advance(now time.Time, out *[]transport.Outgoing) (bool, error) {
	o := &w.op
	if o.phase == phaseIdle {
		return false, errNoOp
	}
	if err := w.rnd.Err(); err != nil {
		return false, err
	}
	switch o.phase {
	case phaseQuery:
		// The fold is a quorum observation: it seeds the stamp cache,
		// and the bound stamp goes strictly above it (and above an
		// aborted speculative stamp, already folded into seq).
		o.seq = max(o.seq, o.qmax.Seq)
		w.foldCache(o.qmax)
		w.cacheOK = true
		o.queried = true
		return w.emitPW(now, types.Tagged{TS: o.seq + 1, W: w.wid, Val: o.val}, out)
	case phaseSpec:
		if o.starved || w.nackSeen {
			// Some server already held a stamp at or above c, or the
			// quorum starved. The NACK made no server state change; the
			// writer made none either, so the abort is clean — remember
			// the evidence and flip to the slow path. The abandoned pair
			// may linger on servers that acknowledged it before the
			// verdict: record it as this operation's ghost and retry
			// strictly above it, so the completed write can never share
			// the ghost's stamp.
			w.foldCache(w.nackMax)
			w.calm = false
			w.stats.SpecFlips++
			o.ghost = o.c.Stamp()
			o.seq = max(o.seq, o.c.TS)
			return w.emitQuery(now, out)
		}
		// A quorum acknowledged with zero NACKs: every acking server
		// installed c as strictly newest, and by quorum intersection any
		// previously completed WRITE's stamp sat in at least one honest
		// server of this quorum — which would have NACKed. So c outranks
		// every write that completed before this one began, exactly the
		// guarantee the query round buys, and the attempt commits as a
		// pre-write at a bound stamp does.
		w.ts, w.last, w.pw = o.c.TS, o.c.Stamp(), o.c
		w.stats.SpecOps++
		return w.commitPW(now, true, out)
	case phasePW:
		return w.commitPW(now, false, out)
	default: // phaseW
		if o.round <= w.wRounds {
			return w.emitW(now, o.round+1, out)
		}
		return w.complete(now)
	}
}

// emit opens a round at now: fresh ack and NACK state, and its messages
// appended to out. Only a pre-write's decision waits for the timer
// (Fig. 1 line 5), and only when a fast WRITE is possible.
func (w *Writer) emit(now time.Time, phase writePhase, targets []types.ProcID, m wire.Message, out *[]transport.Outgoing) {
	w.op.phase = phase
	w.nackSeen, w.nackMax = false, types.Stamp0
	timed := (phase == phaseSpec || phase == phasePW) && w.fastAcks <= w.s
	w.rnd.Open(now, phase.String(), timed, targets, m, out)
}

// emitQuery emits the MWMR stamp-discovery round: a round-1 READ
// (servers answer a writer's round-1 query statelessly — it never
// touches the freezing machinery), whose acks acceptQueryAck folds by
// plain maximum.
func (w *Writer) emitQuery(now time.Time, out *[]transport.Outgoing) (bool, error) {
	w.qtsr++
	w.op.qmax = types.Stamp0
	w.emit(now, phaseQuery, nil, wire.Read{TSR: w.qtsr, Round: 1}, out)
	return false, nil
}

// emitSpec emits the speculative pre-write of DESIGN.md §12 at the
// already-chosen pair c: PW with Spec set and — unlike emitPW — no
// writer state committed up front, because the attempt may be rejected.
func (w *Writer) emitSpec(now time.Time, c types.Tagged, out *[]transport.Outgoing) (bool, error) {
	w.stats.SpecAttempts++
	w.op.c, w.opTS = c, c.TS
	w.emit(now, phaseSpec, nil, wire.PW{TS: c.TS, PW: c, W: w.w, Frozen: w.frozen, Spec: true}, out)
	return false, nil
}

// emitPW binds the pair c and emits its pre-write (Fig. 1 lines 3–4),
// with the frozen set left over from the previous WRITE's
// freezevalues(). The stamp is immutable from here on (see the Writer
// doc): contention observed in the PW_ACKs is recorded in the meta,
// never acted on.
func (w *Writer) emitPW(now time.Time, c types.Tagged, out *[]transport.Outgoing) (bool, error) {
	w.ts, w.last, w.pw = c.TS, c.Stamp(), c
	w.op.c, w.opTS = c, c.TS
	f := w.op.fault
	w.emit(now, phasePW, f.pwTo(), wire.PW{TS: c.TS, PW: c, W: w.w, Frozen: w.frozen}, out)
	if f != nil && f.CrashAfterPW {
		w.crashed = true
		return false, ErrCrashed
	}
	return false, nil
}

// emitW emits a W round of the write phase (Fig. 1 lines 9–11) at the
// already pre-written pair.
func (w *Writer) emitW(now time.Time, round int, out *[]transport.Outgoing) (bool, error) {
	w.op.round = round
	f := w.op.fault
	w.emit(now, phaseW, f.wTo(round), wire.W{Round: round, Tag: int64(w.op.c.TS), C: w.pw, Frozen: w.op.frozen}, out)
	if f != nil && f.CrashAfterW[round] {
		w.crashed = true
		return false, ErrCrashed
	}
	return false, nil
}

// commitPW acts on a decided pre-write (Fig. 1 lines 6–8): record the
// value as written, detect slow READs and freeze values for them, then
// return on the fast path or open the write phase.
func (w *Writer) commitPW(now time.Time, spec bool, out *[]transport.Outgoing) (bool, error) {
	o := &w.op
	w.w = w.pw
	if frozen := w.fz.Freeze(&w.rnd, w.acks, w.b, w.pw, nil); w.freezeInW {
		o.frozen = frozen
	} else {
		w.frozen = frozen
	}

	o.meta = WriteMeta{TS: o.c.TS, Writer: o.c.W, PWAcks: w.rnd.Acks(),
		Queried: o.queried, Contended: w.sawContention(o.c), Spec: spec, Ghost: o.ghost}
	// A NACKed speculative attempt earlier in this operation counts as
	// contention evidence even when the retry's own acks are clean: one
	// full query-path operation must complete uncontended before the
	// writer speculates again.
	w.noteCompletion(o.c, o.meta.Contended || !o.ghost.IsZero())

	if w.rnd.Acks() >= w.fastAcks {
		o.meta.Fast = true
		return w.complete(now)
	}
	return w.emitW(now, 2, out)
}

// complete publishes the finished WRITE's meta at now, with every round
// it opened counted (drive.Round.Rounds): an abandoned speculative
// pre-write and the stamp query included.
func (w *Writer) complete(now time.Time) (bool, error) {
	o := &w.op
	o.meta.Rounds = w.rnd.Rounds()
	w.lastMeta = o.meta
	w.stats.record(o.meta.Rounds, o.meta.Fast)
	if !o.t0.IsZero() {
		w.metrics.observeWrite(o.meta, now.Sub(o.t0))
	}
	return true, nil
}

// foldCache raises the cached maximum stamp to at least s.
func (w *Writer) foldCache(s types.Stamp) {
	if w.cachedMax.Less(s) {
		w.cachedMax = s
	}
}

// noteCompletion feeds the speculative fast path's telemetry at the
// point the pre-write quorum is in: the counted acks' Max fields and
// the bound stamp itself raise the stamp cache (a quorum observation,
// so the cache becomes trustworthy), and the contention verdict sets
// the calm flag for the next operation's speculation decision.
func (w *Writer) noteCompletion(c types.Tagged, contended bool) {
	for i := range w.acks {
		if w.rnd.Acked(i) {
			w.foldCache(w.acks[i].Max)
		}
	}
	w.foldCache(c.Stamp())
	w.cacheOK = true
	w.calm = !contended
}

// sawContention reports whether any counted PW_ACK's Max exceeds the
// bound stamp: the server already held a higher stamp when it
// acknowledged, direct evidence another writer raced this operation.
func (w *Writer) sawContention(c types.Tagged) bool {
	st := c.Stamp()
	for i := range w.acks {
		if w.rnd.Acked(i) && st.Less(w.acks[i].Max) {
			return true
		}
	}
	return false
}

// acceptPWAck records a structurally valid PW_ACK or PW_NACK tagged
// with the in-flight pre-write's TS. Acks from servers not yet counted
// enter the ack set; a NACK (speculative attempts only — servers never
// NACK a non-spec PW) raises the nack flag that aborts the attempt. Stale
// replies to an abandoned speculative attempt carry its old TS and are
// dropped here: the slow-path retry binds strictly above the ghost, so
// opTS always moves on before new acks are awaited.
func (w *Writer) acceptPWAck(env wire.Envelope) {
	// Validate the envelope's interface value, not an unboxed copy —
	// re-boxing it would allocate on every ack.
	switch a := env.Msg.(type) {
	case wire.PWAck:
		if a.TS != w.opTS || wire.Validate(env.Msg) != nil {
			return
		}
		if i, first := w.rnd.Ack(env.From); first {
			if w.acks == nil {
				w.acks = make([]wire.PWAck, w.s)
			}
			w.acks[i] = a
		}
	case wire.PWNack:
		if !w.rnd.Server(env.From) || a.TS != w.opTS || wire.Validate(env.Msg) != nil {
			return
		}
		w.nackSeen = true
		if w.nackMax.Less(a.Max) {
			w.nackMax = a.Max
		}
	}
}

// acceptQueryAck folds one stamp-query ack: the plain maximum over
// every stamp in a quorum of acks.
//
// The plain maximum — not a (b+1)-st-highest fold — is deliberate. A
// completed WRITE is guaranteed into only one honest server of the
// quorum intersection, so demanding b+1 witnesses for a stamp could
// discard the latest completed write and re-issue its sequence number —
// a lost update. The cost is that a single malicious server can inflate
// the sequence component; that burns int64 headroom but never breaks
// atomicity, since stamps only need to keep growing (DESIGN.md §10).
func (w *Writer) acceptQueryAck(env wire.Envelope) {
	a, ok := env.Msg.(wire.ReadAck)
	if !ok || a.TSR != w.qtsr || a.Round != 1 || wire.Validate(env.Msg) != nil {
		return
	}
	if _, first := w.rnd.Ack(env.From); !first {
		return
	}
	for _, s := range [...]types.Stamp{a.PW.Stamp(), a.W.Stamp(), a.VW.Stamp()} {
		if w.op.qmax.Less(s) {
			w.op.qmax = s
		}
	}
}

// acceptWAck counts one WRITE_ACK of the W round in flight.
func (w *Writer) acceptWAck(env wire.Envelope) {
	a, ok := env.Msg.(wire.WAck)
	if ok && a.Round == w.op.round && a.Tag == int64(w.op.c.TS) {
		w.rnd.Ack(env.From)
	}
}

// pwTo and wTo are the recipients a round may reach: nil — every server
// — for a correct writer.
func (f *WriteFault) pwTo() []types.ProcID {
	if f == nil {
		return nil
	}
	return f.PWTo
}

func (f *WriteFault) wTo(round int) []types.ProcID {
	if f == nil {
		return nil
	}
	return f.WTo[round]
}
