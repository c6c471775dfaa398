package core

import (
	"testing"

	"luckystore/internal/types"
	"luckystore/internal/wire"
)

func tv(ts int64, val string) types.Tagged {
	return types.Tagged{TS: types.TS(ts), Val: types.Value(val)}
}

func stepOne(t *testing.T, s *Server, from types.ProcID, m wire.Message) wire.Message {
	t.Helper()
	out := s.StepAppend(from, m, nil)
	if len(out) != 1 {
		t.Fatalf("StepAppend(%T) produced %d messages, want 1", m, len(out))
	}
	if out[0].To != from {
		t.Fatalf("reply addressed to %s, want %s", out[0].To, from)
	}
	return out[0].Msg
}

func TestServerInitialState(t *testing.T) {
	s := NewServer()
	pw, w, vw := s.State()
	if !pw.IsBottom() || !w.IsBottom() || !vw.IsBottom() {
		t.Errorf("initial state = (%v,%v,%v), want all bottom", pw, w, vw)
	}
	if got := s.FrozenFor(types.ReaderID(0)); got != types.InitialFrozen() {
		t.Errorf("initial frozen = %+v", got)
	}
	if got := s.ReaderTS(types.ReaderID(0)); got != types.ReaderTS0 {
		t.Errorf("initial readerTS = %d", got)
	}
}

func TestServerPWUpdatesAndAcks(t *testing.T) {
	s := NewServer()
	reply := stepOne(t, s, types.WriterID(), wire.PW{TS: 1, PW: tv(1, "a"), W: types.Bottom()})
	ack, ok := reply.(wire.PWAck)
	if !ok || ack.TS != 1 {
		t.Fatalf("reply = %+v, want PW_ACK ts=1", reply)
	}
	pw, w, _ := s.State()
	if pw != tv(1, "a") || !w.IsBottom() {
		t.Errorf("state after PW = (%v,%v)", pw, w)
	}
	// Second write carries w of the first.
	stepOne(t, s, types.WriterID(), wire.PW{TS: 2, PW: tv(2, "b"), W: tv(1, "a")})
	pw, w, _ = s.State()
	if pw != tv(2, "b") || w != tv(1, "a") {
		t.Errorf("state after 2nd PW = (%v,%v)", pw, w)
	}
}

func TestServerPWIgnoresStaleValues(t *testing.T) {
	s := NewServer()
	stepOne(t, s, types.WriterID(), wire.PW{TS: 5, PW: tv(5, "e"), W: tv(4, "d")})
	// A delayed (or Byzantine-replayed) older PW must not regress state
	// (Lemma 3, non-decreasing timestamps).
	stepOne(t, s, types.WriterID(), wire.PW{TS: 2, PW: tv(2, "b"), W: tv(1, "a")})
	pw, w, _ := s.State()
	if pw != tv(5, "e") || w != tv(4, "d") {
		t.Errorf("stale PW regressed state to (%v,%v)", pw, w)
	}
}

func TestServerRejectsPWFromNonWriter(t *testing.T) {
	s := NewServer()
	if out := s.StepAppend(types.ReaderID(0), wire.PW{TS: 1, PW: tv(1, "a"), W: types.Bottom()}, nil); out != nil {
		t.Errorf("server replied to PW from a reader: %v", out)
	}
	if out := s.StepAppend(types.ServerID(1), wire.PW{TS: 1, PW: tv(1, "a"), W: types.Bottom()}, nil); out != nil {
		t.Errorf("server replied to PW from a server: %v", out)
	}
	pw, _, _ := s.State()
	if !pw.IsBottom() {
		t.Error("PW from non-writer mutated state")
	}
}

func TestServerDropsMalformedMessages(t *testing.T) {
	s := NewServer()
	malformed := []wire.Message{
		nil,
		wire.PW{TS: 0, PW: types.Bottom(), W: types.Bottom()},
		wire.W{Round: 9, Tag: 1, C: tv(1, "x")},
		wire.Read{TSR: 0, Round: 1},
	}
	for _, m := range malformed {
		if out := s.StepAppend(types.WriterID(), m, nil); out != nil {
			t.Errorf("server replied to malformed %T: %v", m, out)
		}
	}
}

func TestServerWRoundSemantics(t *testing.T) {
	// Round 1 updates pw only; round 2 pw+w; round 3 pw+w+vw
	// (Fig. 3 lines 12–15).
	for round := 1; round <= 3; round++ {
		s := NewServer()
		reply := stepOne(t, s, types.WriterID(), wire.W{Round: round, Tag: 7, C: tv(7, "g")})
		ack, ok := reply.(wire.WAck)
		if !ok || ack.Round != round || ack.Tag != 7 {
			t.Fatalf("round %d reply = %+v", round, reply)
		}
		pw, w, vw := s.State()
		if pw != tv(7, "g") {
			t.Errorf("round %d: pw = %v", round, pw)
		}
		if (round > 1) != (w == tv(7, "g")) {
			t.Errorf("round %d: w = %v", round, w)
		}
		if (round > 2) != (vw == tv(7, "g")) {
			t.Errorf("round %d: vw = %v", round, vw)
		}
	}
}

func TestServerWFromReaderAllowed(t *testing.T) {
	s := NewServer()
	reply := stepOne(t, s, types.ReaderID(1), wire.W{Round: 3, Tag: 11, C: tv(4, "wb")})
	if _, ok := reply.(wire.WAck); !ok {
		t.Fatalf("reply = %+v, want WAck", reply)
	}
	pw, w, vw := s.State()
	if pw != tv(4, "wb") || w != tv(4, "wb") || vw != tv(4, "wb") {
		t.Errorf("write-back did not apply: (%v,%v,%v)", pw, w, vw)
	}
}

func TestRegularServerIgnoresReaderWriteBack(t *testing.T) {
	s := NewRegularServer()
	if out := s.StepAppend(types.ReaderID(0), wire.W{Round: 3, Tag: 1, C: tv(9, "evil")}, nil); out != nil {
		t.Errorf("regular server replied to reader write-back: %v", out)
	}
	pw, _, _ := s.State()
	if !pw.IsBottom() {
		t.Error("regular server applied reader write-back")
	}
	// The writer's W messages still apply.
	stepOne(t, s, types.WriterID(), wire.W{Round: 2, Tag: 1, C: tv(1, "ok")})
	pw, w, _ := s.State()
	if pw != tv(1, "ok") || w != tv(1, "ok") {
		t.Errorf("regular server dropped writer W: (%v,%v)", pw, w)
	}
}

func TestServerReadAckContents(t *testing.T) {
	s := NewServer()
	stepOne(t, s, types.WriterID(), wire.PW{TS: 3, PW: tv(3, "c"), W: tv(2, "b")})
	stepOne(t, s, types.WriterID(), wire.W{Round: 3, Tag: 1, C: tv(1, "a")}) // older: only vw picks nothing new
	reply := stepOne(t, s, types.ReaderID(0), wire.Read{TSR: 1, Round: 1})
	ack, ok := reply.(wire.ReadAck)
	if !ok {
		t.Fatalf("reply = %+v", reply)
	}
	if ack.TSR != 1 || ack.Round != 1 {
		t.Errorf("ack tags = (%d,%d)", ack.TSR, ack.Round)
	}
	if ack.PW != tv(3, "c") || ack.W != tv(2, "b") || ack.VW != tv(1, "a") {
		t.Errorf("ack contents = (%v,%v,%v)", ack.PW, ack.W, ack.VW)
	}
	if ack.Frozen != types.InitialFrozen() {
		t.Errorf("ack frozen = %+v", ack.Frozen)
	}
}

func TestServerRecordsReaderTSOnlyAfterRoundOne(t *testing.T) {
	s := NewServer()
	rj := types.ReaderID(0)
	// Round 1 must not record the timestamp (fast READs leave no trace,
	// Fig. 3 line 10).
	stepOne(t, s, rj, wire.Read{TSR: 5, Round: 1})
	if got := s.ReaderTS(rj); got != 0 {
		t.Errorf("round-1 READ recorded tsr = %d", got)
	}
	stepOne(t, s, rj, wire.Read{TSR: 5, Round: 2})
	if got := s.ReaderTS(rj); got != 5 {
		t.Errorf("round-2 READ recorded tsr = %d, want 5", got)
	}
	// Older timestamps never regress the record.
	stepOne(t, s, rj, wire.Read{TSR: 3, Round: 2})
	if got := s.ReaderTS(rj); got != 5 {
		t.Errorf("stale READ regressed tsr to %d", got)
	}
}

func TestServerNewreadPiggyback(t *testing.T) {
	s := NewServer()
	rj := types.ReaderID(2)
	// A slow READ announces tsr=4.
	stepOne(t, s, rj, wire.Read{TSR: 4, Round: 2})
	reply := stepOne(t, s, types.WriterID(), wire.PW{TS: 1, PW: tv(1, "a"), W: types.Bottom()})
	ack := reply.(wire.PWAck)
	if len(ack.NewRead) != 1 || ack.NewRead[0] != (types.ReadStamp{Reader: rj, TSR: 4}) {
		t.Fatalf("newread = %+v, want [{r2 4}]", ack.NewRead)
	}
	// Once the writer freezes a value for tsr 4, the server stops
	// reporting that READ.
	frozen := []types.FrozenEntry{{Reader: rj, PW: tv(2, "b"), TSR: 4}}
	reply = stepOne(t, s, types.WriterID(), wire.PW{TS: 2, PW: tv(2, "b"), W: tv(1, "a"), Frozen: frozen})
	ack = reply.(wire.PWAck)
	if len(ack.NewRead) != 0 {
		t.Errorf("newread after freeze = %+v, want empty", ack.NewRead)
	}
	if got := s.FrozenFor(rj); got != (types.FrozenPair{PW: tv(2, "b"), TSR: 4}) {
		t.Errorf("frozen slot = %+v", got)
	}
}

func TestServerFrozenAppliesOnlyForCurrentOrNewerTSR(t *testing.T) {
	s := NewServer()
	rj := types.ReaderID(0)
	stepOne(t, s, rj, wire.Read{TSR: 6, Round: 2})
	// A freeze for an older READ (tsr 4 < stored 6) must be ignored
	// (Fig. 3 line 6 requires tsr'_j ≥ tsr_j).
	old := []types.FrozenEntry{{Reader: rj, PW: tv(1, "old"), TSR: 4}}
	stepOne(t, s, types.WriterID(), wire.PW{TS: 1, PW: tv(1, "old"), W: types.Bottom(), Frozen: old})
	if got := s.FrozenFor(rj); got != types.InitialFrozen() {
		t.Errorf("stale freeze applied: %+v", got)
	}
	// A freeze for a newer READ applies even when the PW pair is stale.
	stepOne(t, s, types.WriterID(), wire.PW{TS: 9, PW: tv(9, "i"), W: tv(8, "h")})
	newer := []types.FrozenEntry{{Reader: rj, PW: tv(2, "nw"), TSR: 7}}
	stepOne(t, s, types.WriterID(), wire.PW{TS: 2, PW: tv(2, "nw"), W: tv(1, "old"), Frozen: newer})
	if got := s.FrozenFor(rj); got != (types.FrozenPair{PW: tv(2, "nw"), TSR: 7}) {
		t.Errorf("frozen slot = %+v, want {〈2,nw〉 7}", got)
	}
	// …and the stale PW pair itself must not have regressed pw/w.
	pw, w, _ := s.State()
	if pw != tv(9, "i") || w != tv(8, "h") {
		t.Errorf("state regressed to (%v,%v)", pw, w)
	}
}

func TestServerStepIsPureOnUnknownKinds(t *testing.T) {
	s := NewServer()
	if out := s.StepAppend(types.WriterID(), wire.ABDRead{Seq: 1}, nil); out != nil {
		t.Errorf("core server replied to ABD message: %v", out)
	}
}

// The automaton must never send to anyone but the requesting client.
func TestServerRepliesOnlyToSender(t *testing.T) {
	s := NewServer()
	msgs := []struct {
		from types.ProcID
		m    wire.Message
	}{
		{types.WriterID(), wire.PW{TS: 1, PW: tv(1, "a"), W: types.Bottom()}},
		{types.ReaderID(0), wire.Read{TSR: 1, Round: 1}},
		{types.WriterID(), wire.W{Round: 2, Tag: 1, C: tv(1, "a")}},
	}
	for _, tc := range msgs {
		for _, o := range s.StepAppend(tc.from, tc.m, nil) {
			if o.To != tc.from {
				t.Errorf("reply to %s for %T sent from %s", o.To, tc.m, tc.from)
			}
		}
	}
}
