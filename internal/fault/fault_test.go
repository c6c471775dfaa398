package fault

import (
	"testing"

	"luckystore/internal/core"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

func TestMuteNeverReplies(t *testing.T) {
	b := Mute()
	msgs := []wire.Message{
		wire.PW{TS: 1, PW: types.Tagged{TS: 1, Val: "v"}, W: types.Bottom()},
		wire.Read{TSR: 1, Round: 1},
		wire.W{Round: 2, Tag: 1, C: types.Bottom()},
	}
	for _, m := range msgs {
		if out := b.StepAppend(types.WriterID(), m, nil); out != nil {
			t.Errorf("Mute replied to %T: %v", m, out)
		}
	}
}

func TestForgeHighTSRepliesMatchTags(t *testing.T) {
	b := ForgeHighTS(999, "evil")
	out := b.StepAppend(types.ReaderID(0), wire.Read{TSR: 7, Round: 2}, nil)
	if len(out) != 1 {
		t.Fatalf("got %d replies", len(out))
	}
	ack, ok := out[0].Msg.(wire.ReadAck)
	if !ok || ack.TSR != 7 || ack.Round != 2 {
		t.Fatalf("reply = %+v, want tag-matching ReadAck", out[0].Msg)
	}
	forged := types.Tagged{TS: 999, Val: "evil"}
	if ack.PW != forged || ack.W != forged || ack.VW != forged {
		t.Errorf("forged fields = %+v", ack)
	}
	if ack.Frozen.TSR != 7 || ack.Frozen.PW != forged {
		t.Errorf("forged frozen = %+v", ack.Frozen)
	}
	// Its acks must pass structural validation — that is the point.
	if err := wire.Validate(ack); err != nil {
		t.Errorf("forged ack rejected by Validate: %v", err)
	}
	// PW and W get matching acks too.
	pwOut := b.StepAppend(types.WriterID(), wire.PW{TS: 3, PW: types.Tagged{TS: 3, Val: "x"}, W: types.Bottom()}, nil)
	if a := pwOut[0].Msg.(wire.PWAck); a.TS != 3 {
		t.Errorf("PW ack ts = %d", a.TS)
	}
	wOut := b.StepAppend(types.WriterID(), wire.W{Round: 2, Tag: 3, C: types.Tagged{TS: 3, Val: "x"}}, nil)
	if a := wOut[0].Msg.(wire.WAck); a.Round != 2 || a.Tag != 3 {
		t.Errorf("W ack = %+v", a)
	}
}

func TestStaleBottomAlwaysReportsInitial(t *testing.T) {
	b := StaleBottom()
	out := b.StepAppend(types.ReaderID(1), wire.Read{TSR: 2, Round: 1}, nil)
	ack := out[0].Msg.(wire.ReadAck)
	if !ack.PW.IsBottom() || !ack.W.IsBottom() || !ack.VW.IsBottom() {
		t.Errorf("StaleBottom leaked state: %+v", ack)
	}
}

func TestRandomLiarIsReproducible(t *testing.T) {
	b1, b2 := RandomLiar(42), RandomLiar(42)
	m := wire.Read{TSR: 1, Round: 1}
	o1 := b1.StepAppend(types.ReaderID(0), m, nil)[0].Msg.(wire.ReadAck)
	o2 := b2.StepAppend(types.ReaderID(0), m, nil)[0].Msg.(wire.ReadAck)
	if o1 != o2 {
		t.Errorf("same seed, different lies: %+v vs %+v", o1, o2)
	}
	if err := wire.Validate(o1); err != nil {
		t.Errorf("random lie not structurally valid: %v", err)
	}
}

func TestEquivocatorPerClientLies(t *testing.T) {
	a := types.Tagged{TS: 10, Val: "forA"}
	bPair := types.Tagged{TS: 20, Val: "forB"}
	fallback := types.Tagged{TS: 1, Val: "fb"}
	eq := Equivocator(map[types.ProcID]types.Tagged{
		types.ReaderID(0): a,
		types.ReaderID(1): bPair,
	}, fallback)
	m := wire.Read{TSR: 1, Round: 1}
	if got := eq.StepAppend(types.ReaderID(0), m, nil)[0].Msg.(wire.ReadAck); got.PW != a {
		t.Errorf("reader0 saw %v, want %v", got.PW, a)
	}
	if got := eq.StepAppend(types.ReaderID(1), m, nil)[0].Msg.(wire.ReadAck); got.PW != bPair {
		t.Errorf("reader1 saw %v, want %v", got.PW, bPair)
	}
	if got := eq.StepAppend(types.ReaderID(2), m, nil)[0].Msg.(wire.ReadAck); got.PW != fallback {
		t.Errorf("reader2 saw %v, want fallback %v", got.PW, fallback)
	}
}

func TestSplitBrainHonestAndLyingFaces(t *testing.T) {
	real := core.NewServer()
	// Load real state via the writer's PW.
	real.StepAppend(types.WriterID(), wire.PW{TS: 4, PW: types.Tagged{TS: 4, Val: "v"}, W: types.Tagged{TS: 3, Val: "u"}}, nil)
	sb := NewSplitBrain(real, StaleBottom(), types.ReaderID(0))

	m := wire.Read{TSR: 1, Round: 1}
	honest := sb.StepAppend(types.ReaderID(0), m, nil)[0].Msg.(wire.ReadAck)
	if honest.PW != (types.Tagged{TS: 4, Val: "v"}) {
		t.Errorf("honest face = %+v, want real state", honest)
	}
	lying := sb.StepAppend(types.ReaderID(1), m, nil)[0].Msg.(wire.ReadAck)
	if !lying.PW.IsBottom() {
		t.Errorf("lying face = %+v, want bottom", lying)
	}
}
