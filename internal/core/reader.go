package core

import (
	"fmt"
	"time"

	"luckystore/internal/drive"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// ReadMeta describes the last completed READ: query rounds, whether a
// write-back was necessary, and the selected pair.
type ReadMeta struct {
	TSR         types.ReaderTS
	QueryRounds int  // READ rounds until a candidate was selected
	WroteBack   bool // whether the 3-round write-back ran
	Returned    types.Tagged
}

// Rounds returns the total communication round-trips of the READ: the
// query rounds plus three write-back rounds when a write-back ran. A
// fast READ has Rounds() == 1.
func (m ReadMeta) Rounds() int {
	if m.WroteBack {
		return m.QueryRounds + 3
	}
	return m.QueryRounds
}

// Fast reports whether the READ completed in a single round-trip.
func (m ReadMeta) Fast() bool { return m.Rounds() == 1 }

// Reader implements the READ protocol of Figure 2. A Reader is not
// safe for concurrent use: each reader process invokes one operation at
// a time (wait-freedom is across clients, not within one) — which is
// what makes its round state poolable. The view, round-ack set and
// outgoing buffer live on the Reader and are reset per READ instead of
// reallocated, so a steady-state fast READ allocates nothing beyond the
// messages themselves (DESIGN.md §5).
type Reader struct {
	cfg Config
	ep  transport.Endpoint
	id  types.ProcID

	tsr types.ReaderTS

	// pooled per-operation round state, reset per READ
	op        readOp
	view      *View
	drv       drive.Private // runs Read over ep
	roundSeen []bool        // this round's ack set, slot per server
	outBuf    []transport.Outgoing
	serverIDs []types.ProcID // cached broadcast target list

	lastMeta ReadMeta
	stats    OpStats
}

// NewReader creates reader client id on the given endpoint.
func NewReader(cfg Config, id types.ProcID, ep transport.Endpoint) *Reader {
	return &Reader{cfg: cfg, ep: ep, id: id}
}

// ID returns the reader's process id.
func (r *Reader) ID() types.ProcID { return r.id }

// LastMeta returns metadata about the most recent completed READ.
func (r *Reader) LastMeta() ReadMeta { return r.lastMeta }

// resetView prepares the reusable view for a READ with the current tsr.
func (r *Reader) resetView() {
	if r.view == nil {
		r.view = NewView(r.cfg, r.tsr)
	} else {
		r.view.Reset(r.tsr)
	}
}

// resetRoundSeen clears the per-round ack set.
func (r *Reader) resetRoundSeen() {
	if r.roundSeen == nil {
		r.roundSeen = make([]bool, r.cfg.S())
	} else {
		clear(r.roundSeen)
	}
}

// readOp is everything a READ carries from one call to the next (see
// writeOp: Start emits the first round, Deliver/Expire decide it and
// Advance completes or emits the next). The view and the round's ack set
// are the Reader's pooled state.
type readOp struct {
	rnd  int          // READ round in flight (0: no READ is); the query-round count once a candidate is selected
	wb   int          // write-back round in flight (1–3), 0 while querying
	sel  types.Tagged // the selected candidate, being written back
	acks int          // servers that answered the round in flight
	dl   deadlines    // the round's timer and the operation's deadline
	err  error        // the op deadline passed, or a resend failed
	t0   time.Time    // invocation time when Config.Metrics observes the op
}

// Read returns the register's value: the value of a concurrent write,
// or the last value written. The returned Tagged carries the value and
// the timestamp the writer assigned to it (the k of wr_k).
func (r *Reader) Read() (types.Tagged, error) {
	done, err := r.Start()
	if err := r.drv.Wait(r.ep, r, done, err); err != nil {
		return types.Tagged{}, err
	}
	return r.lastMeta.Returned, nil
}

// Start begins a READ (Fig. 2 lines 12–16): new READ timestamp, fresh
// view, round 1 to every server. The operation then advances by
// Deliver/Expire/Advance until a call reports done or an error; the
// reader takes no other operation meanwhile.
func (r *Reader) Start() (done bool, err error) {
	now := time.Now()
	r.op = readOp{dl: deadlines{op: now.Add(r.cfg.opTimeout())}}
	if r.cfg.Metrics != nil {
		r.op.t0 = now
	}
	r.tsr++
	r.resetView()
	return r.settle(false, r.emitQuery())
}

// Deliver folds one reply into the round in flight without blocking
// (see Writer.Deliver).
func (r *Reader) Deliver(env wire.Envelope) { r.accept(env) }

// Decided reports whether the round in flight has what Fig. 2 line 17
// asks for — S−t acks of the round and, in round 1, the timer's verdict
// (or all S); a quorum in a write-back round — or has failed.
func (r *Reader) Decided() bool { return r.op.err != nil || r.decided() }

// Deadline returns when Expire next has something to judge (see
// Writer.Deadline).
func (r *Reader) Deadline() time.Time { return r.op.dl.next() }

// Expire is the round's timer firing at now (see Writer.Expire): the
// synchrony verdict at a quorum, the retransmitGrace cycle below one,
// ErrOpTimeout past the operation deadline, and nothing before the
// deadline.
func (r *Reader) Expire(now time.Time) {
	o := &r.op
	switch {
	case o.rnd == 0 || o.err != nil:
	case !now.Before(o.dl.op) && o.wb > 0:
		o.err = fmt.Errorf("READ(tsr=%d) write-back round %d: %w", r.tsr, o.wb, ErrOpTimeout)
	case !now.Before(o.dl.op):
		o.err = fmt.Errorf("READ(tsr=%d) round %d: %w", r.tsr, o.rnd, ErrOpTimeout)
	case o.dl.expire(now, o.acks >= r.cfg.Quorum(), r.cfg.Metrics):
		o.err = resend(r.cfg.Metrics, r.ep, r.outBuf)
	}
}

// Advance acts on a decided round: it completes the READ — done, with
// LastMeta().Returned the value read — or sends the next round, or
// returns the round's failure.
func (r *Reader) Advance() (done bool, err error) { return r.settle(r.advance()) }

// settle passes a Start/Advance verdict through, retiring the operation
// once it is over either way.
func (r *Reader) settle(done bool, err error) (bool, error) {
	if (done || err != nil) && r.op.rnd > 0 {
		r.op = readOp{}
	}
	return done, err
}

func (r *Reader) advance() (bool, error) {
	o := &r.op
	if o.rnd == 0 {
		return false, errNoOp
	}
	if o.err != nil {
		return false, o.err
	}
	if o.wb > 0 {
		if o.wb < 3 {
			return false, r.emitWriteBack(o.wb + 1)
		}
		return r.complete(true)
	}
	// Fig. 2 lines 18–20: stop querying as soon as a candidate exists.
	c, ok := r.view.Select()
	if !ok {
		return false, r.emitQuery()
	}
	// Fig. 2 line 21: write back unless the READ is provably complete
	// after a fast first round.
	o.sel = c
	if !r.view.Fast(c) || o.rnd > 1 {
		return false, r.emitWriteBack(1)
	}
	return r.complete(false)
}

// complete publishes the finished READ's meta.
func (r *Reader) complete(wroteBack bool) (bool, error) {
	o := &r.op
	r.lastMeta = ReadMeta{TSR: r.tsr, QueryRounds: o.rnd, WroteBack: wroteBack, Returned: o.sel}
	r.stats.record(r.lastMeta.Rounds(), r.lastMeta.Fast())
	if !o.t0.IsZero() {
		r.cfg.Metrics.observeRead(r.lastMeta, time.Since(o.t0))
	}
	return true, nil
}

// emitQuery sends the next READ round to all servers (Fig. 2 lines
// 15–16).
func (r *Reader) emitQuery() error {
	r.op.rnd++
	return r.emit(wire.Read{TSR: r.tsr, Round: r.op.rnd})
}

// emitWriteBack sends one round of the three-round write-back of Fig. 2
// lines 26–28, following the W-phase communication pattern with the
// reader's timestamp as the tag.
func (r *Reader) emitWriteBack(round int) error {
	r.op.wb = round
	return r.emit(wire.W{Round: round, Tag: int64(r.tsr), C: r.op.sel})
}

// emit opens a round: fresh ack set, the round's deadline, then the
// broadcast. The timer runs from the start of the round, not from the
// end of the broadcast: a send may be a socket write on this goroutine
// (transport.Coalescer writes through), and the synchrony verdict should
// not wait that much longer.
func (r *Reader) emit(m wire.Message) error {
	r.op.acks = 0
	r.op.dl.arm(r.cfg.roundTimeout())
	r.resetRoundSeen()
	return r.broadcast(m)
}

// decided reports whether the round in flight has the replies (and, for
// round 1, the timer verdict) its wait condition asks for.
func (r *Reader) decided() bool {
	o := &r.op
	if o.wb > 0 {
		return o.acks >= r.cfg.Quorum()
	}
	return o.acks >= r.cfg.S() || (o.acks >= r.cfg.Quorum() && (o.rnd > 1 || o.dl.expired))
}

// accept folds one envelope into the round in flight. A query-round ack
// updates the view's per-server arrays whenever it is fresh (Fig. 2
// lines 23–25) and counts toward the quorum when it answers the current
// round; a write-back round counts matching WRITE_ACKs.
func (r *Reader) accept(env wire.Envelope) {
	o := &r.op
	if !validServer(r.cfg, env.From) {
		return
	}
	i := env.From.Index()
	if o.wb > 0 {
		a, ok := env.Msg.(wire.WAck)
		if ok && a.Round == o.wb && a.Tag == int64(r.tsr) && !r.roundSeen[i] {
			r.roundSeen[i] = true
			o.acks++
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
	if a.Round == o.rnd && !r.roundSeen[i] {
		r.roundSeen[i] = true
		o.acks++
	}
	r.view.Update(env.From, a.Round, a.PW, a.W, a.VW, a.Frozen)
}

// broadcast fans m out to every server through the reader's reusable
// outgoing buffer and cached id list (building a server id is a string
// allocation; building S of them per round is not).
func (r *Reader) broadcast(m wire.Message) error {
	if r.serverIDs == nil {
		r.serverIDs = types.ServerIDs(r.cfg.S())
	}
	out := r.outBuf[:0]
	for _, id := range r.serverIDs {
		out = append(out, transport.Outgoing{To: id, Msg: m})
	}
	r.outBuf = out
	return transport.SendAll(r.ep, out)
}
