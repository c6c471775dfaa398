package core

import (
	"fmt"
	"time"

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
// what makes its round state poolable. The view, timers, round-ack set
// and outgoing buffer live on the Reader and are reset per READ instead
// of reallocated, so a steady-state fast READ allocates nothing beyond
// the messages themselves (DESIGN.md §5).
type Reader struct {
	cfg Config
	ep  transport.Endpoint
	id  types.ProcID

	tsr types.ReaderTS

	// pooled per-operation round state, reset per READ
	view       *View
	opTimer    *time.Timer
	roundTimer *time.Timer
	roundSeen  []bool // this round's ack set, slot per server
	outBuf     []transport.Outgoing
	serverIDs  []types.ProcID // cached broadcast target list

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
func (r *Reader) resetView() *View {
	if r.view == nil {
		r.view = NewView(r.cfg, r.tsr)
	} else {
		r.view.Reset(r.tsr)
	}
	return r.view
}

// resetRoundSeen clears the per-round ack set.
func (r *Reader) resetRoundSeen() {
	if r.roundSeen == nil {
		r.roundSeen = make([]bool, r.cfg.S())
	} else {
		clear(r.roundSeen)
	}
}

// Read returns the register's value: the value of a concurrent write,
// or the last value written. The returned Tagged carries the value and
// the timestamp the writer assigned to it (the k of wr_k).
func (r *Reader) Read() (types.Tagged, error) {
	m := r.cfg.Metrics
	if m == nil {
		return r.read()
	}
	t0 := time.Now()
	v, err := r.read()
	if err == nil {
		m.observeRead(r.lastMeta, time.Since(t0))
	}
	return v, err
}

func (r *Reader) read() (types.Tagged, error) {
	opDeadline := resetTimer(&r.opTimer, r.cfg.opTimeout())
	defer opDeadline.Stop()

	// Fig. 2 lines 12–13: new READ timestamp, fresh view.
	r.tsr++
	view := r.resetView()

	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	expired := false
	rnd := 0
	var sel types.Tagged
	for {
		// Fig. 2 lines 15–16: next round, query all servers.
		rnd++
		// The round's timer runs from the start of the round, not from
		// the end of the broadcast: a send may be a socket write on this
		// goroutine (transport.Coalescer writes through), and the
		// synchrony verdict should not wait that much longer.
		timer = resetTimer(&r.roundTimer, r.cfg.roundTimeout())
		if err := r.broadcast(wire.Read{TSR: r.tsr, Round: rnd}); err != nil {
			return types.Tagged{}, err
		}
		inGrace := false

		// Fig. 2 line 17: wait for S−t acks of this round, and in round
		// 1 also for the synchrony timer (early exit when all S servers
		// answered this round). A timer expiry below a quorum starts
		// the retransmitGrace cycle: after the grace the broadcast is
		// re-sent (see the retransmitGrace doc — duplicates are
		// idempotent on servers, and a lost broadcast would otherwise
		// wedge the round until the operation deadline).
		r.resetRoundSeen()
		roundAcks := 0
		for roundAcks < r.cfg.S() &&
			!(roundAcks >= r.cfg.Quorum() && (rnd > 1 || expired)) {
			select {
			case env, ok := <-r.ep.Recv():
				if !ok {
					return types.Tagged{}, transport.ErrClosed
				}
				roundAcks += r.acceptAck(view, rnd, env)
			case <-timer.C:
				expired = true
				if roundAcks < r.cfg.Quorum() {
					if inGrace {
						r.cfg.Metrics.retransmit()
						if err := r.broadcast(wire.Read{TSR: r.tsr, Round: rnd}); err != nil {
							return types.Tagged{}, err
						}
					} else {
						r.cfg.Metrics.starved()
					}
					inGrace = true
					timer = resetTimer(&r.roundTimer, retransmitGrace)
				}
			case <-opDeadline.C:
				return types.Tagged{}, fmt.Errorf("READ(tsr=%d) round %d: %w", r.tsr, rnd, ErrOpTimeout)
			}
		}
		r.drainAcks(view, rnd)

		// Fig. 2 lines 18–20: stop as soon as a candidate exists.
		if c, ok := view.Select(); ok {
			sel = c
			break
		}
	}

	// Fig. 2 line 21: write back unless the READ is provably complete
	// after a fast first round.
	wroteBack := false
	if !view.Fast(sel) || rnd > 1 {
		if err := r.writeBack(sel, opDeadline); err != nil {
			return types.Tagged{}, err
		}
		wroteBack = true
	}
	r.lastMeta = ReadMeta{TSR: r.tsr, QueryRounds: rnd, WroteBack: wroteBack, Returned: sel}
	r.stats.record(r.lastMeta.Rounds(), r.lastMeta.Rounds() == 1)
	return sel, nil
}

// acceptAck folds one envelope into the view and reports whether it
// counted toward the current round's quorum; any fresher-round ack
// updates the per-server arrays (Fig. 2 lines 23–25).
func (r *Reader) acceptAck(view *View, rnd int, env wire.Envelope) int {
	a, ok := env.Msg.(wire.ReadAck)
	// Validate the envelope's interface value, not the unboxed a —
	// re-boxing it would allocate on every ack.
	if !ok || !validServer(r.cfg, env.From) || a.TSR != r.tsr || wire.Validate(env.Msg) != nil {
		return 0
	}
	if a.Round > rnd {
		return 0 // no correct server answers a round not yet started
	}
	counted := 0
	if a.Round == rnd {
		if i := env.From.Index(); !r.roundSeen[i] {
			r.roundSeen[i] = true
			counted = 1
		}
	}
	view.Update(env.From, a.Round, a.PW, a.W, a.VW, a.Frozen)
	return counted
}

// drainAcks consumes acks already queued when the round's wait
// condition was met, so predicate evaluation sees every reply that
// arrived in time.
func (r *Reader) drainAcks(view *View, rnd int) {
	for {
		select {
		case env, ok := <-r.ep.Recv():
			if !ok {
				return
			}
			r.acceptAck(view, rnd, env)
		default:
			return
		}
	}
}

// writeBack runs the three-round write-back of Fig. 2 lines 26–28,
// following the W-phase communication pattern with the reader's
// timestamp as the tag.
func (r *Reader) writeBack(c types.Tagged, opDeadline *time.Timer) error {
	for round := 1; round <= 3; round++ {
		if err := r.broadcast(wire.W{Round: round, Tag: int64(r.tsr), C: c}); err != nil {
			return err
		}
		// Retransmit after the retransmitGrace cycle while below a
		// quorum (see the query loop): write-back rounds are
		// idempotent on servers.
		timer := resetTimer(&r.roundTimer, r.cfg.roundTimeout())
		inGrace := false
		r.resetRoundSeen()
		got := 0
		for got < r.cfg.Quorum() {
			select {
			case env, ok := <-r.ep.Recv():
				if !ok {
					return transport.ErrClosed
				}
				a, isAck := env.Msg.(wire.WAck)
				if !isAck || !validServer(r.cfg, env.From) || a.Round != round || a.Tag != int64(r.tsr) {
					continue
				}
				if i := env.From.Index(); !r.roundSeen[i] {
					r.roundSeen[i] = true
					got++
				}
			case <-timer.C:
				if inGrace {
					r.cfg.Metrics.retransmit()
					if err := r.broadcast(wire.W{Round: round, Tag: int64(r.tsr), C: c}); err != nil {
						return err
					}
				} else {
					r.cfg.Metrics.starved()
				}
				inGrace = true
				timer = resetTimer(&r.roundTimer, retransmitGrace)
			case <-opDeadline.C:
				return fmt.Errorf("READ(tsr=%d) write-back round %d: %w", r.tsr, round, ErrOpTimeout)
			}
		}
	}
	return nil
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
