package drive_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"luckystore/internal/drive"
	"luckystore/internal/metrics"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// recorder is an endpoint with no network behind it: it keeps what the
// round sends and counts Flush calls.
type recorder struct {
	sent    []transport.Outgoing
	flushes int
}

func (r *recorder) ID() types.ProcID           { return types.WriterID() }
func (r *recorder) Recv() <-chan wire.Envelope { return nil }
func (r *recorder) Close() error               { return nil }
func (r *recorder) Flush() error               { r.flushes++; return nil }
func (r *recorder) Send(to types.ProcID, m wire.Message) error {
	r.sent = append(r.sent, transport.Outgoing{To: to, Msg: m})
	return nil
}

// take returns what was sent since the last take.
func (r *recorder) take() []transport.Outgoing {
	out := r.sent
	r.sent = nil
	return out
}

// shape3 is S = 3 with a quorum of two.
var shape3 = drive.Shape{Name: "test WRITE", S: 3, Need: 2, RoundTimeout: 25 * time.Millisecond, OpTimeout: time.Second}

// opened returns a round over a fresh recorder with its first round open.
func opened(t *testing.T, sh drive.Shape, timed bool) (*drive.Round, *recorder) {
	t.Helper()
	ep := &recorder{}
	r := drive.NewRound(ep, sh)
	r.Begin()
	if err := r.Open("PW round", timed, nil, wire.Read{TSR: 1, Round: 1}); err != nil {
		t.Fatal(err)
	}
	return &r, ep
}

func TestRoundSendsToEveryServerOrTheTargets(t *testing.T) {
	r, ep := opened(t, shape3, true)
	m := wire.Read{TSR: 1, Round: 1}
	want := []transport.Outgoing{{To: "s0", Msg: m}, {To: "s1", Msg: m}, {To: "s2", Msg: m}}
	if got := ep.take(); !reflect.DeepEqual(got, want) {
		t.Fatalf("sent %+v, want %+v", got, want)
	}
	if err := r.Open("W round", false, []types.ProcID{"s1"}, m); err != nil {
		t.Fatal(err)
	}
	if got := ep.take(); !reflect.DeepEqual(got, want[1:2]) {
		t.Fatalf("sent %+v, want %+v", got, want[1:2])
	}
}

func TestRoundTimedDecidesEarlyOnAllS(t *testing.T) {
	r, _ := opened(t, shape3, true)
	for i := 0; i < 3; i++ {
		if r.Decided() {
			t.Fatalf("decided on %d of 3 acks without the timer", i)
		}
		r.Ack(types.ServerID(i))
	}
	if !r.Decided() {
		t.Fatal("all S acks in, round not decided")
	}
}

func TestRoundTimedDecidesAtAQuorumWithTheTimer(t *testing.T) {
	r, ep := opened(t, shape3, true)
	ep.take()
	r.Ack("s0")
	r.Ack("s2")
	dl := r.Deadline()
	r.Expire(dl.Add(-time.Nanosecond))
	if r.Decided() {
		t.Fatal("a quorum decided before the timer's verdict")
	}
	r.Expire(dl)
	if !r.Decided() || len(ep.sent) != 0 || r.Err() != nil {
		t.Fatalf("a quorum and the timer: decided %v, sent %+v, err %v", r.Decided(), ep.sent, r.Err())
	}
	if !r.Deadline().After(dl) {
		t.Error("the timer gave its verdict but is still the next deadline")
	}
}

func TestRoundUntimedDecidesAtAQuorum(t *testing.T) {
	r, _ := opened(t, shape3, false)
	r.Ack("s1")
	if r.Decided() {
		t.Fatal("decided on one ack of two")
	}
	r.Ack("s0")
	if !r.Decided() {
		t.Fatal("an untimed round at a quorum: not decided")
	}
}

func TestRoundResendsOncePerGrace(t *testing.T) {
	sh := shape3
	sh.Starved, sh.Retransmits = new(metrics.Counter), new(metrics.Counter)
	r, ep := opened(t, sh, false)
	round := ep.take()
	r.Ack("s1")

	dl := r.Deadline()
	r.Expire(dl)
	if len(ep.sent) != 0 || sh.Starved.Value() != 1 {
		t.Fatalf("first expiry below a quorum: sent %+v, starved %d; want the grace, nothing sent", ep.sent, sh.Starved.Value())
	}
	for n := 1; n <= 2; n++ {
		grace := r.Deadline()
		if !grace.After(dl) {
			t.Fatalf("grace %d deadline %v not after %v", n, grace, dl)
		}
		r.Expire(grace.Add(-time.Nanosecond))
		if len(ep.sent) != 0 {
			t.Fatalf("grace %d: resent before it ran out", n)
		}
		r.Expire(grace)
		r.Expire(grace)
		if got := ep.take(); !reflect.DeepEqual(got, round) {
			t.Fatalf("grace %d: resent %+v, want the round %+v once", n, got, round)
		}
		if ep.flushes != n || sh.Retransmits.Value() != int64(n) || sh.Starved.Value() != 1 {
			t.Fatalf("grace %d: %d flushes, %d retransmits, %d starved; want %d, %d, 1",
				n, ep.flushes, sh.Retransmits.Value(), sh.Starved.Value(), n, n)
		}
		dl = grace
	}
	r.Ack("s2")
	if !r.Decided() || r.Err() != nil {
		t.Fatalf("a quorum after the resend: decided %v, err %v", r.Decided(), r.Err())
	}
}

func TestRoundLapseLeavesTheResendToTheClient(t *testing.T) {
	r, ep := opened(t, shape3, true)
	ep.take()
	if r.Lapse(r.Deadline()) {
		t.Fatal("the first expiry below a quorum reported the grace over")
	}
	if !r.Lapse(r.Deadline()) {
		t.Fatal("the grace ran out below a quorum, not reported")
	}
	if len(ep.sent) != 0 {
		t.Fatalf("Lapse sent %+v", ep.sent)
	}
}

func TestRoundOpDeadlineNamesTheClientAndPhase(t *testing.T) {
	r, _ := opened(t, shape3, true)
	if err := r.Open("W round", false, nil, wire.W{Round: 2, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	r.Expire(time.Now().Add(shape3.OpTimeout + time.Second))
	err := r.Err()
	if !r.Decided() || !errors.Is(err, drive.ErrOpTimeout) {
		t.Fatalf("past the op deadline: decided %v, err %v; want ErrOpTimeout", r.Decided(), err)
	}
	if msg := err.Error(); !strings.Contains(msg, "test WRITE") || !strings.Contains(msg, "W round") || !strings.Contains(msg, "round 2") {
		t.Errorf("error %q does not name the client, the phase and the round", msg)
	}
	r.Begin()
	if r.Err() != nil {
		t.Errorf("a new operation still carries the last one's error %v", r.Err())
	}
}

func TestRoundDefaultsTheTimeouts(t *testing.T) {
	before := time.Now()
	r, _ := opened(t, drive.Shape{Name: "test READ", S: 3, Need: 2}, true)
	after := time.Now()
	if dl := r.Deadline(); dl.Before(before.Add(drive.DefaultRoundTimeout)) || dl.After(after.Add(drive.DefaultRoundTimeout)) {
		t.Errorf("round deadline %v not DefaultRoundTimeout after the open", dl)
	}
	r.Ack("s0")
	r.Ack("s1")
	r.Expire(r.Deadline())
	if dl := r.Deadline(); dl.Before(before.Add(drive.DefaultOpTimeout)) || dl.After(after.Add(drive.DefaultOpTimeout)) {
		t.Errorf("op deadline %v not DefaultOpTimeout after the begin", dl)
	}
}

func TestRoundCountsEachServerOnce(t *testing.T) {
	r, _ := opened(t, shape3, false)
	if i, first := r.Ack("s1"); i != 1 || !first {
		t.Fatalf("Ack(s1) = %d, %v; want 1, true", i, first)
	}
	for _, from := range []types.ProcID{"s1", "s3", "s9", "r1", "w", "x", ""} {
		if _, first := r.Ack(from); first {
			t.Errorf("Ack(%q) counted", from)
		}
	}
	if r.Acks() != 1 || r.Decided() || !r.Acked(1) || r.Acked(0) {
		t.Fatalf("acks %d, decided %v; want s1 alone", r.Acks(), r.Decided())
	}
	if !r.Server("s2") || r.Server("s3") || r.Server("r0") {
		t.Error("Server does not name exactly s0..s2")
	}
	if err := r.Open("W round", false, nil, wire.W{Round: 2, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	if r.Acks() != 0 || r.Acked(1) {
		t.Error("a new round kept the last round's acks")
	}
}
