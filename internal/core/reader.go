package core

import (
	"time"

	"luckystore/internal/drive"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// ReadMeta describes the last completed READ: the rounds it ran, the
// query rounds among them, whether a write-back was necessary, and the
// selected pair.
type ReadMeta struct {
	TSR         types.ReaderTS
	QueryRounds int  // READ rounds until a candidate was selected
	WroteBack   bool // whether the write-back ran
	Opened      int  // every round the READ opened, counted as each was
	Returned    types.Tagged
}

// Rounds returns the communication round-trips the READ ran, counted
// where each round was opened (drive.Round.Rounds). A fast READ has
// Rounds() == 1.
func (m ReadMeta) Rounds() int { return m.Opened }

// Fast reports whether the READ completed in a single round-trip.
func (m ReadMeta) Fast() bool { return m.Rounds() == 1 }

// Reader implements the READ protocol of Figure 2, and with it the
// READ of every protocol of its family: they run the same query loop
// and differ only in their round shape, their thresholds (Appendix C's
// fast predicate is Thresholds.FastW) and the length of the write-back
// that follows it — three rounds in Fig. 2, two in Appendix C's
// two-phase READ, none in Appendix D's regular one (NewReaderOf).
//
// A Reader is not safe for concurrent use: each reader process invokes
// one operation at a time (wait-freedom is across clients, not within
// one) — which is what makes its round state poolable. The view and the
// round live on the Reader and are reset per READ instead of
// reallocated, so a steady-state fast READ allocates nothing beyond the
// messages themselves (DESIGN.md §5).
type Reader struct {
	th        Thresholds
	writeBack int // write-back rounds after the query loop: 3, 2 or 0
	metrics   *Metrics
	ep        transport.Endpoint
	id        types.ProcID

	tsr types.ReaderTS

	// pooled per-operation round state, reset per READ
	op   readOp
	rnd  drive.Round
	view *View
	drv  drive.Private // runs Read over ep

	lastMeta ReadMeta
	stats    OpStats
}

// NewReader creates reader client id on the given endpoint.
func NewReader(cfg Config, id types.ProcID, ep transport.Endpoint) *Reader {
	r := NewReaderOf(cfg.shape("READ"), cfg.Thresholds(), 3, id, ep)
	r.metrics = cfg.Metrics
	return r
}

// NewReaderOf creates reader client id of a protocol of the Fig. 2
// family: rounds of shape sh, selection and fast predicates over th,
// and a write-back of writeBack rounds after the query loop.
func NewReaderOf(sh drive.Shape, th Thresholds, writeBack int, id types.ProcID, ep transport.Endpoint) *Reader {
	return &Reader{th: th, writeBack: writeBack, ep: ep, id: id, rnd: drive.NewRound(sh)}
}

// ID returns the reader's process id.
func (r *Reader) ID() types.ProcID { return r.id }

// LastMeta returns metadata about the most recent completed READ.
func (r *Reader) LastMeta() ReadMeta { return r.lastMeta }

// resetView prepares the reusable view for a READ with the current tsr.
func (r *Reader) resetView() {
	if r.view == nil {
		r.view = NewViewWithThresholds(r.th, r.tsr)
	} else {
		r.view.Reset(r.tsr)
	}
}

// readOp is everything a READ carries from one call to the next (see
// writeOp: Start emits the first round, Deliver/Expire decide it and
// Advance completes or emits the next). The view and the round are the
// Reader's pooled state.
type readOp struct {
	rnd int          // READ round in flight (0: no READ is); the query-round count once a candidate is selected
	wb  int          // write-back round in flight (from 1), 0 while querying
	sel types.Tagged // the selected candidate, being written back
	t0  time.Time    // invocation time when Config.Metrics observes the op
}

// Read returns the register's value: the value of a concurrent write,
// or the last value written. The returned Tagged carries the value and
// the timestamp the writer assigned to it (the k of wr_k).
func (r *Reader) Read() (types.Tagged, error) {
	if err := r.drv.Wait(r.ep, r, r.Start); err != nil {
		return types.Tagged{}, err
	}
	return r.lastMeta.Returned, nil
}

// Start begins a READ at now (Fig. 2 lines 12–16): new READ timestamp,
// fresh view, round 1 to every server appended to out. The operation
// then advances by Deliver/Expire/Advance until a call reports done or
// an error; the reader takes no other operation meanwhile.
func (r *Reader) Start(now time.Time, out *[]transport.Outgoing) (done bool, err error) {
	r.rnd.Begin(now)
	r.op = readOp{}
	if r.metrics != nil {
		r.op.t0 = now
	}
	r.tsr++
	r.resetView()
	return r.settle(r.emitQuery(now, out))
}

// Decided reports whether the round in flight has what Fig. 2 line 17
// asks for — S−t acks of the round and, in round 1, the timer's verdict
// (or all S); a quorum in a write-back round — or has failed.
func (r *Reader) Decided() bool { return r.rnd.Decided() }

// Short is the round's (drive.Round.Short).
func (r *Reader) Short() int { return r.rnd.Short() }

// Deadline returns when Expire next has something to judge (see
// drive.Round.Deadline).
func (r *Reader) Deadline() time.Time { return r.rnd.Deadline() }

// Expire is the round's timer firing at now (see drive.Round.Expire):
// the synchrony verdict at a quorum, the resend of a round still below
// one after the grace (appended to out), and ErrOpTimeout past the
// operation deadline.
func (r *Reader) Expire(now time.Time, out *[]transport.Outgoing) {
	if r.op.rnd > 0 {
		r.rnd.Expire(now, out)
	}
}

// Advance acts on a decided round at now: it completes the READ — done,
// with LastMeta().Returned the value read — or appends the next round to
// out, or returns the round's failure.
func (r *Reader) Advance(now time.Time, out *[]transport.Outgoing) (done bool, err error) {
	return r.settle(r.advance(now, out))
}

// settle passes a Start/Advance verdict through, retiring the operation
// once it is over either way.
func (r *Reader) settle(done bool, err error) (bool, error) {
	if (done || err != nil) && r.op.rnd > 0 {
		r.op = readOp{}
	}
	return done, err
}

func (r *Reader) advance(now time.Time, out *[]transport.Outgoing) (bool, error) {
	o := &r.op
	if o.rnd == 0 {
		return false, errNoOp
	}
	if err := r.rnd.Err(); err != nil {
		return false, err
	}
	if o.wb > 0 {
		if o.wb < r.writeBack {
			return r.emitWriteBack(now, o.wb+1, out)
		}
		return r.complete(now)
	}
	// Fig. 2 lines 18–20: stop querying as soon as a candidate exists.
	c, ok := r.view.Select()
	if !ok {
		return r.emitQuery(now, out)
	}
	// Fig. 2 line 21: write back unless the READ is provably complete
	// after a fast first round — or the protocol never writes back.
	o.sel = c
	if r.writeBack > 0 && (!r.view.Fast(c) || o.rnd > 1) {
		return r.emitWriteBack(now, 1, out)
	}
	return r.complete(now)
}

// complete publishes the finished READ's meta at now.
func (r *Reader) complete(now time.Time) (bool, error) {
	o := &r.op
	r.lastMeta = ReadMeta{TSR: r.tsr, QueryRounds: o.rnd, WroteBack: o.wb > 0, Opened: r.rnd.Rounds(), Returned: o.sel}
	r.stats.record(r.lastMeta.Rounds(), r.lastMeta.Fast())
	if !o.t0.IsZero() {
		r.metrics.observeRead(r.lastMeta, now.Sub(o.t0))
	}
	return true, nil
}

// emitQuery emits the next READ round to all servers (Fig. 2 lines
// 15–16).
func (r *Reader) emitQuery(now time.Time, out *[]transport.Outgoing) (bool, error) {
	r.op.rnd++
	r.rnd.Open(now, "query round", r.op.rnd == 1, nil, wire.Read{TSR: r.tsr, Round: r.op.rnd}, out)
	return false, nil
}

// emitWriteBack emits one round of the write-back of Fig. 2 lines 26–28
// (Fig. 7 lines 24–26 in two rounds), following the W-phase
// communication pattern with the reader's timestamp as the tag.
func (r *Reader) emitWriteBack(now time.Time, round int, out *[]transport.Outgoing) (bool, error) {
	r.op.wb = round
	r.rnd.Open(now, "write-back round", false, nil, wire.W{Round: round, Tag: int64(r.tsr), C: r.op.sel}, out)
	return false, nil
}

// Deliver folds one reply into the round in flight without blocking
// (see Writer.Deliver). A query-round ack updates the view's per-server
// arrays whenever it is fresh (Fig. 2 lines 23–25) and counts toward the
// quorum when it answers the current round; a write-back round counts
// matching WRITE_ACKs.
func (r *Reader) Deliver(env wire.Envelope) {
	o := &r.op
	if o.wb > 0 {
		a, ok := env.Msg.(wire.WAck)
		if ok && a.Round == o.wb && a.Tag == int64(r.tsr) {
			r.rnd.Ack(env.From)
		}
		return
	}
	a, ok := env.Msg.(wire.ReadAck)
	// Validate the envelope's interface value, not the unboxed a —
	// re-boxing it would allocate on every ack.
	if !ok || a.TSR != r.tsr || wire.Validate(env.Msg) != nil {
		return
	}
	if a.Round > o.rnd {
		return // no correct server answers a round not yet started
	}
	if a.Round == o.rnd {
		r.rnd.Ack(env.From)
	}
	r.view.Update(env.From, a.Round, a.PW, a.W, a.VW, a.Frozen)
}
