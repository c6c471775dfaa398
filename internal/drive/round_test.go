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

// t0 is when the tests' operations begin.
var t0 = time.Date(2006, 6, 25, 0, 0, 0, 0, time.UTC)

// shape3 is S = 3 with a quorum of two.
var shape3 = drive.Shape{Name: "test WRITE", S: 3, Need: 2, RoundTimeout: 25 * time.Millisecond, OpTimeout: time.Second}

// opened returns a round begun at t0 with its first round open, and the
// messages that round emitted.
func opened(sh drive.Shape, timed bool) (*drive.Round, []transport.Outgoing) {
	r := drive.NewRound(sh)
	r.Begin(t0)
	var out []transport.Outgoing
	r.Open(t0, "PW round", timed, nil, wire.Read{TSR: 1, Round: 1}, &out)
	return &r, out
}

func TestRoundSendsToEveryServerOrTheTargets(t *testing.T) {
	r, out := opened(shape3, true)
	m := wire.Read{TSR: 1, Round: 1}
	want := []transport.Outgoing{{To: "s0", Msg: m}, {To: "s1", Msg: m}, {To: "s2", Msg: m}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("emitted %+v, want %+v", out, want)
	}
	r.Open(t0, "W round", false, []types.ProcID{"s1"}, m, &out)
	if want = append(want, want[1]); !reflect.DeepEqual(out, want) {
		t.Fatalf("emitted %+v, want %+v: the targets, appended", out, want)
	}
}

func TestRoundTimedDecidesEarlyOnAllS(t *testing.T) {
	r, _ := opened(shape3, true)
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
	r, _ := opened(shape3, true)
	r.Ack("s0")
	r.Ack("s2")
	dl := r.Deadline()
	if want := t0.Add(shape3.RoundTimeout); !dl.Equal(want) {
		t.Fatalf("round deadline %v, want %v", dl, want)
	}
	var out []transport.Outgoing
	r.Expire(dl.Add(-time.Nanosecond), &out)
	if r.Decided() {
		t.Fatal("a quorum decided before the timer's verdict")
	}
	r.Expire(dl, &out)
	if !r.Decided() || len(out) != 0 || r.Err() != nil {
		t.Fatalf("a quorum and the timer: decided %v, emitted %+v, err %v", r.Decided(), out, r.Err())
	}
	if want := t0.Add(shape3.OpTimeout); !r.Deadline().Equal(want) {
		t.Errorf("the timer gave its verdict, next deadline %v; want the op's, %v", r.Deadline(), want)
	}
}

func TestRoundUntimedDecidesAtAQuorum(t *testing.T) {
	r, _ := opened(shape3, false)
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
	r, round := opened(sh, false)
	r.Ack("s1")

	var out []transport.Outgoing
	dl := r.Deadline()
	r.Expire(dl, &out)
	if len(out) != 0 || sh.Starved.Value() != 1 {
		t.Fatalf("first expiry below a quorum: emitted %+v, starved %d; want the grace, nothing emitted", out, sh.Starved.Value())
	}
	grace := r.Deadline().Sub(dl)
	if grace <= 0 {
		t.Fatalf("the grace runs out at %v, not after the timer's %v", r.Deadline(), dl)
	}
	for n := 1; n <= 2; n++ {
		next := dl.Add(grace)
		if !r.Deadline().Equal(next) {
			t.Fatalf("grace %d runs out at %v, want %v", n, r.Deadline(), next)
		}
		r.Expire(next.Add(-time.Nanosecond), &out)
		if len(out) != 0 {
			t.Fatalf("grace %d: resent before it ran out", n)
		}
		r.Expire(next, &out)
		r.Expire(next, &out)
		if !reflect.DeepEqual(out, round) {
			t.Fatalf("grace %d: resent %+v, want the round %+v once", n, out, round)
		}
		if sh.Retransmits.Value() != int64(n) || sh.Starved.Value() != 1 {
			t.Fatalf("grace %d: %d retransmits, %d starved; want %d, 1", n, sh.Retransmits.Value(), sh.Starved.Value(), n)
		}
		out, dl = out[:0], next
	}
	r.Ack("s2")
	if !r.Decided() || r.Err() != nil {
		t.Fatalf("a quorum after the resend: decided %v, err %v", r.Decided(), r.Err())
	}
}

func TestRoundLapseLeavesTheResendToTheClient(t *testing.T) {
	r, _ := opened(shape3, true)
	if r.Lapse(r.Deadline()) {
		t.Fatal("the first expiry below a quorum reported the grace over")
	}
	if !r.Lapse(r.Deadline()) {
		t.Fatal("the grace ran out below a quorum, not reported")
	}
}

func TestRoundOpDeadlineNamesTheClientAndPhase(t *testing.T) {
	r, out := opened(shape3, true)
	r.Open(t0, "W round", false, nil, wire.W{Round: 2, Tag: 1}, &out)
	r.Expire(t0.Add(shape3.OpTimeout-time.Nanosecond), &out)
	if r.Err() != nil {
		t.Fatalf("failed before the op deadline: %v", r.Err())
	}
	r.Expire(t0.Add(shape3.OpTimeout), &out)
	err := r.Err()
	if !r.Decided() || !errors.Is(err, drive.ErrOpTimeout) {
		t.Fatalf("at the op deadline: decided %v, err %v; want ErrOpTimeout", r.Decided(), err)
	}
	if msg := err.Error(); !strings.Contains(msg, "test WRITE") || !strings.Contains(msg, "W round") || !strings.Contains(msg, "round 2") {
		t.Errorf("error %q does not name the client, the phase and the round", msg)
	}
	r.Begin(t0)
	if r.Err() != nil {
		t.Errorf("a new operation still carries the last one's error %v", r.Err())
	}
}

func TestRoundDefaultsTheTimeouts(t *testing.T) {
	r, out := opened(drive.Shape{Name: "test READ", S: 3, Need: 2}, true)
	if dl, want := r.Deadline(), t0.Add(drive.DefaultRoundTimeout); !dl.Equal(want) {
		t.Errorf("round deadline %v, want DefaultRoundTimeout after the open, %v", dl, want)
	}
	r.Ack("s0")
	r.Ack("s1")
	r.Expire(r.Deadline(), &out)
	if dl, want := r.Deadline(), t0.Add(drive.DefaultOpTimeout); !dl.Equal(want) {
		t.Errorf("op deadline %v, want DefaultOpTimeout after the begin, %v", dl, want)
	}
}

func TestRoundCountsEachServerOnce(t *testing.T) {
	r, out := opened(shape3, false)
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
	r.Open(t0, "W round", false, nil, wire.W{Round: 2, Tag: 1}, &out)
	if r.Acks() != 0 || r.Acked(1) {
		t.Error("a new round kept the last round's acks")
	}
}
