package core_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// recorder is a client's outgoing buffer with no network behind it: it
// keeps what the client emits, and the test hands the client its replies
// by Deliver.
type recorder struct {
	id   types.ProcID
	sent []transport.Outgoing
}

// take returns what was emitted since the last take.
func (r *recorder) take() []transport.Outgoing {
	out := r.sent
	r.sent = nil
	return out
}

// from builds server i's reply to id.
func from(i int, id types.ProcID, m wire.Message) wire.Envelope {
	return wire.Envelope{From: types.ServerID(i), To: id, Msg: m}
}

// nbCfg is S = 3 with a quorum of 2 and fw = 0: a WRITE is fast only on
// all three PW_ACKs.
var nbCfg = core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1,
	RoundTimeout: 25 * time.Millisecond, OpTimeout: time.Second}

// wantRound checks that a round went to every server of an S-server
// deployment as the one message m.
func wantRound(t *testing.T, what string, sent []transport.Outgoing, s int, m wire.Message) {
	t.Helper()
	if len(sent) != s {
		t.Fatalf("%s: %d messages sent, want %d: %+v", what, len(sent), s, sent)
	}
	for i, o := range sent {
		if o.To != types.ServerID(i) || !reflect.DeepEqual(o.Msg, m) {
			t.Fatalf("%s: message %d is %+v to %s, want %+v to %s", what, i, o.Msg, o.To, m, types.ServerID(i))
		}
	}
}

// started begins WRITE(v), emitting to ep, and checks that it left a
// round in flight.
func started(t *testing.T, w *core.Writer, ep *recorder, v types.Value) {
	t.Helper()
	if done, err := w.Start(time.Now(), v, &ep.sent); done || err != nil {
		t.Fatalf("Start(%q) = %v, %v; want a round in flight", v, done, err)
	}
}

// advancer is the half of a client that acts on a decided round.
type advancer interface {
	Advance(now time.Time, out *[]transport.Outgoing) (bool, error)
}

// advanced advances a decided round, emitting to ep, and checks whether
// it completed.
func advanced(t *testing.T, what string, c advancer, ep *recorder, wantDone bool) {
	t.Helper()
	if done, err := c.Advance(time.Now(), &ep.sent); err != nil || done != wantDone {
		t.Fatalf("%s: Advance = %v, %v; want done = %v", what, done, err, wantDone)
	}
}

func TestNonBlockingWriteFastOnAllAcks(t *testing.T) {
	ep := &recorder{id: types.WriterID()}
	w := core.NewWriter(nbCfg, ep.id, nil)
	started(t, w, ep, "v")
	pair := types.Tagged{TS: 1, Val: "v"}
	wantRound(t, "PW", ep.take(), 3, wire.PW{TS: 1, PW: pair, W: types.Bottom()})
	for i := 0; i < 3; i++ {
		if w.Decided() {
			t.Fatalf("decided on %d of 3 PW_ACKs without the timer", i)
		}
		w.Deliver(from(i, ep.id, wire.PWAck{TS: 1}))
	}
	if !w.Decided() {
		t.Fatal("all S PW_ACKs in, round not decided")
	}
	advanced(t, "PW", w, ep, true)
	if m := w.LastMeta(); m.Rounds != 1 || !m.Fast || len(ep.take()) != 0 {
		t.Errorf("meta %+v; want one fast round and nothing more sent", m)
	}
}

func TestNonBlockingWriteSlowPathNeedsTheTimer(t *testing.T) {
	ep := &recorder{id: types.WriterID()}
	w := core.NewWriter(nbCfg, ep.id, nil)
	started(t, w, ep, "v")
	ep.take()
	for i := 0; i < 2; i++ {
		w.Deliver(from(i, ep.id, wire.PWAck{TS: 1}))
	}
	dl := w.Deadline()
	w.Expire(dl.Add(-time.Nanosecond), &ep.sent)
	if w.Decided() || len(ep.sent) != 0 {
		t.Fatal("Expire before the deadline acted")
	}
	w.Expire(dl, &ep.sent)
	if !w.Decided() {
		t.Fatal("S−t PW_ACKs and the timer: round not decided")
	}
	pair := types.Tagged{TS: 1, Val: "v"}
	for round := 2; round <= 3; round++ {
		advanced(t, "before W", w, ep, false)
		wantRound(t, "W", ep.take(), 3, wire.W{Round: round, Tag: 1, C: pair})
		w.Deliver(from(0, ep.id, wire.WAck{Round: round, Tag: 1}))
		w.Deliver(from(2, ep.id, wire.WAck{Round: round, Tag: 1}))
		if !w.Decided() {
			t.Fatalf("W round %d: a quorum of acks, not decided", round)
		}
	}
	advanced(t, "W3", w, ep, true)
	if m := w.LastMeta(); m.Rounds != 3 || m.Fast {
		t.Errorf("meta %+v; want 3 rounds, not fast", m)
	}
}

func TestNonBlockingWriteResendsAfterTheGrace(t *testing.T) {
	ep := &recorder{id: types.WriterID()}
	w := core.NewWriter(nbCfg, ep.id, nil)
	started(t, w, ep, "v")
	round := ep.take()
	w.Deliver(from(1, ep.id, wire.PWAck{TS: 1}))

	dl := w.Deadline()
	w.Expire(dl, &ep.sent)
	if w.Decided() || len(ep.sent) != 0 {
		t.Fatalf("first expiry below a quorum: decided %v, sent %+v; want the grace, nothing sent", w.Decided(), ep.sent)
	}
	grace := w.Deadline()
	if !grace.After(dl) {
		t.Fatalf("grace deadline %v not after the round's %v", grace, dl)
	}
	w.Expire(grace.Add(-time.Nanosecond), &ep.sent)
	if len(ep.sent) != 0 {
		t.Fatal("resent before the grace ran out")
	}
	w.Expire(grace, &ep.sent)
	if got := ep.take(); !reflect.DeepEqual(got, round) {
		t.Fatalf("resent %+v, want exactly the round %+v", got, round)
	}
	w.Deliver(from(2, ep.id, wire.PWAck{TS: 1}))
	if !w.Decided() {
		t.Fatal("a quorum after the timer fired: not decided")
	}
	advanced(t, "PW", w, ep, false) // two acks of three: the W rounds follow
}

func TestNonBlockingStarvedSpecFallsBackToTheQuery(t *testing.T) {
	cfg := nbCfg
	cfg.Writers = 2
	ep := &recorder{id: types.WriterID()}
	w := core.NewWriter(cfg, ep.id, nil)
	// A first WRITE on the query path seeds the stamp cache.
	query := func(tsr types.ReaderTS) {
		t.Helper()
		wantRound(t, "query", ep.take(), 3, wire.Read{TSR: tsr, Round: 1})
		for i := 0; i < 3; i++ {
			w.Deliver(from(i, ep.id, wire.ReadAck{TSR: tsr, Round: 1, PW: types.Bottom(), W: types.Bottom(), VW: types.Bottom()}))
		}
		advanced(t, "query", w, ep, false)
	}
	acked := func(ts types.TS) {
		t.Helper()
		ep.take()
		for i := 0; i < 3; i++ {
			w.Deliver(from(i, ep.id, wire.PWAck{TS: ts}))
		}
		advanced(t, "PW", w, ep, true)
	}
	started(t, w, ep, "a")
	query(1)
	acked(1)

	started(t, w, ep, "b")
	ghost := types.Tagged{TS: 2, Val: "b"}
	wantRound(t, "spec", ep.take(), 3, wire.PW{TS: 2, PW: ghost, W: types.Tagged{TS: 1, Val: "a"}, Spec: true})
	w.Deliver(from(0, ep.id, wire.PWAck{TS: 2}))
	w.Expire(w.Deadline(), &ep.sent)
	if w.Decided() {
		t.Fatal("a speculative pre-write gave up at its first expiry")
	}
	w.Expire(w.Deadline(), &ep.sent)
	if !w.Decided() {
		t.Fatal("a speculative pre-write below a quorum after the grace: not decided (starved)")
	}
	advanced(t, "starved spec", w, ep, false)
	query(2)
	acked(3)
	// Three rounds opened: the starved speculative pre-write, the query
	// and the pre-write.
	m := w.LastMeta()
	if m.TS != 3 || !m.Queried || m.Spec || m.Ghost != ghost.Stamp() || m.Rounds != 3 {
		t.Errorf("meta %+v; want ts 3 bound by a query round in 3 rounds, the spec stamp %v as its ghost", m, ghost.Stamp())
	}
}

func TestNonBlockingOpDeadlineNamesThePhase(t *testing.T) {
	ep := &recorder{id: types.WriterID()}
	w := core.NewWriter(nbCfg, ep.id, nil)
	started(t, w, ep, "v")
	w.Expire(time.Now().Add(nbCfg.OpTimeout+time.Second), &ep.sent)
	if !w.Decided() {
		t.Fatal("past the op deadline, not decided")
	}
	_, err := w.Advance(time.Now(), &ep.sent)
	if !errors.Is(err, core.ErrOpTimeout) || !strings.Contains(err.Error(), "pre-write phase") {
		t.Errorf("Advance = %v; want ErrOpTimeout naming the pre-write phase", err)
	}
	if _, err := w.Advance(time.Now(), &ep.sent); err == nil {
		t.Error("the failed WRITE is still in flight")
	}
}

// The READ of Fig. 2 on S = 5: three of five acks are a quorum, and in
// round 1 the timer must have fired too. The view they carry — the pair
// pre-written on two servers, nothing on the third — selects the pair
// without making it fast (fast_pw needs 2b+t+1 = 3), so the READ writes
// it back in three W rounds tagged with its tsr.
func TestNonBlockingReadRoundOneVerdictAndWriteBack(t *testing.T) {
	cfg := core.Config{T: 2, B: 0, Fw: 0, NumReaders: 1,
		RoundTimeout: 25 * time.Millisecond, OpTimeout: time.Second}
	ep := &recorder{id: types.ReaderID(0)}
	r := core.NewReader(cfg, ep.id, nil)
	if done, err := r.Start(time.Now(), &ep.sent); done || err != nil {
		t.Fatalf("Start = %v, %v", done, err)
	}
	wantRound(t, "READ", ep.take(), 5, wire.Read{TSR: 1, Round: 1})
	c := types.Tagged{TS: 1, Val: "x"}
	bot := types.Bottom()
	for i, pw := range []types.Tagged{c, c, bot} {
		r.Deliver(from(i, ep.id, wire.ReadAck{TSR: 1, Round: 1, PW: pw, W: bot, VW: bot}))
	}
	dl := r.Deadline()
	r.Expire(dl.Add(-time.Nanosecond), &ep.sent)
	if r.Decided() {
		t.Fatal("round 1 decided on a quorum before its timer")
	}
	r.Expire(dl, &ep.sent)
	if !r.Decided() {
		t.Fatal("round 1: a quorum and the timer, not decided")
	}
	for wb := 1; wb <= 3; wb++ {
		advanced(t, "before write-back", r, ep, false)
		wantRound(t, "write-back", ep.take(), 5, wire.W{Round: wb, Tag: 1, C: c})
		for i := 2; i < 5; i++ {
			r.Deliver(from(i, ep.id, wire.WAck{Round: wb, Tag: 1}))
		}
		if !r.Decided() {
			t.Fatalf("write-back round %d: a quorum of acks, not decided", wb)
		}
	}
	advanced(t, "write-back 3", r, ep, true)
	if m := r.LastMeta(); m.Returned != c || !m.WroteBack || m.QueryRounds != 1 || m.Rounds() != m.QueryRounds+3 {
		t.Errorf("meta %+v; want %v returned after one query round and a three-round write-back", m, c)
	}
}

// Between operations there is nothing to advance: before the first
// Start, and after an operation completed.
func TestNonBlockingAdvanceWithNothingInFlight(t *testing.T) {
	wep := &recorder{id: types.WriterID()}
	w := core.NewWriter(nbCfg, wep.id, nil)
	rep := &recorder{id: types.ReaderID(0)}
	r := core.NewReader(nbCfg, rep.id, nil)
	for what, c := range map[string]advancer{"Writer": w, "Reader": r} {
		if _, err := c.Advance(time.Now(), &rep.sent); err == nil {
			t.Errorf("%s.Advance before any Start succeeded", what)
		}
	}
	started(t, w, wep, "v")
	for i := 0; i < 3; i++ {
		w.Deliver(from(i, wep.id, wire.PWAck{TS: 1}))
	}
	advanced(t, "PW", w, wep, true)
	if _, err := w.Advance(time.Now(), &wep.sent); err == nil {
		t.Error("Writer.Advance after the WRITE completed succeeded")
	}
	if len(wep.take()) != 3 || len(rep.take()) != 0 {
		t.Error("advancing nothing emitted a message")
	}
}
