package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"luckystore/internal/types"
)

// goldenEnvelopes pins the v3 wire bytes: one frame per message kind,
// written down as hex once and never regenerated. Every frame must be
// exactly what AppendFrame emits for its envelope and must decode back
// to that envelope, so any change to the encoded layout — however
// well-meant — fails here first.
func goldenEnvelopes() []struct {
	name string
	hex  string
	env  Envelope
} {
	w1, w2 := types.WriterIDN(1), types.WriterIDN(2)
	r0, r1 := types.ReaderID(0), types.ReaderID(1)
	s0, s1 := types.ServerID(0), types.ServerID(1)
	tg := func(seq, w int, val string) types.Tagged {
		return types.Tagged{TS: types.TS(seq), W: types.WID(w), Val: types.Value(val)}
	}
	frozen := []types.FrozenEntry{{Reader: r0, PW: tg(7, 1, "f7"), TSR: 3}, {Reader: r1, PW: tg(6, 2, "f6"), TSR: 4}}
	return []struct {
		name string
		hex  string
		env  Envelope
	}{
		{"pw_spec_frozen", "0000002703027731027330011212020276391004027638020272300e02026637060272310c040266360801", Envelope{From: w1, To: s0, Msg: PW{TS: 9, PW: tg(9, 1, "v9"), W: tg(8, 2, "v8"), Frozen: frozen, Spec: true}}},
		{"pwack_max_newread", "000000140302733002773102121604020272300a0272310c", Envelope{From: s0, To: w1, Msg: PWAck{TS: 9, Max: types.Stamp{Seq: 11, Writer: 2},
			NewRead: []types.ReadStamp{{Reader: r0, TSR: 5}, {Reader: r1, TSR: 6}}}}},
		{"pwnack", "0000000b030273310277320d121802", Envelope{From: s1, To: w2, Msg: PWNack{TS: 9, Max: types.Stamp{Seq: 12, Writer: 1}}}},
		{"w", "00000019030277310273310304121202027639010272300e0202663706", Envelope{From: w1, To: s1, Msg: W{Round: 2, Tag: 9, C: tg(9, 1, "v9"), Frozen: frozen[:1]}}},
		{"wack", "0000000a03027331027731040411", Envelope{From: s1, To: w1, Msg: WAck{Round: 2, Tag: -9}}},
		{"read", "0000000a03027230027330050804", Envelope{From: r0, To: s0, Msg: Read{TSR: 4, Round: 2}}},
		{"readack", "0000001d03027330027230060804120202763910040276380e02000c0402663606", Envelope{From: s0, To: r0, Msg: ReadAck{TSR: 4, Round: 2, PW: tg(9, 1, "v9"), W: tg(8, 2, "v8"),
			VW: tg(7, 1, ""), Frozen: types.FrozenPair{PW: tg(6, 2, "f6"), TSR: 3}}}},
		{"abdwrite", "0000000f03027731027330070a0a0203616264", Envelope{From: w1, To: s0, Msg: ABDWrite{Seq: 5, C: tg(5, 1, "abd")}}},
		{"abdwriteack", "0000000903027330027731080a", Envelope{From: s0, To: w1, Msg: ABDWriteAck{Seq: 5}}},
		{"abdread", "0000000e0302723102733109808080808040", Envelope{From: r1, To: s1, Msg: ABDRead{Seq: 1 << 40}}},
		{"abdreadack", "00000014030273310272310a8080808080400a0203616264", Envelope{From: s1, To: r1, Msg: ABDReadAck{Seq: 1 << 40, C: tg(5, 1, "abd")}}},
		{"keyed", "0000001c030277310273300b0875736572732f343201060602016b0000000000", Envelope{From: w1, To: s0, Msg: Keyed{Key: "users/42", Inner: PW{TS: 3, PW: tg(3, 1, "k"), W: types.Bottom()}}}},
		{"batch3", "00000031030277320273310c0b01610306080804027661000b01620504020b01630604020204027663020402766300000000000000", Envelope{From: w2, To: s1, Msg: Batch{Msgs: []Message{
			Keyed{Key: "a", Inner: W{Round: 3, Tag: 4, C: tg(4, 2, "va")}},
			Keyed{Key: "b", Inner: Read{TSR: 2, Round: 1}},
			Keyed{Key: "c", Inner: ReadAck{TSR: 2, Round: 1, PW: tg(1, 2, "vc"), W: tg(1, 2, "vc"), VW: types.Bottom(),
				Frozen: types.InitialFrozen()}},
		}}}},
	}
}

// TestGoldenFrames: each pinned frame is byte-for-byte AppendFrame's
// output for its envelope, and DecodeFrame returns that envelope.
func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenEnvelopes() {
		t.Run(g.name, func(t *testing.T) {
			want, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendFrame(nil, g.env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("encoded bytes drifted from the pinned v3 frame:\n got  %x\n want %x", got, want)
			}
			env, err := DecodeFrame(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("pinned frame does not decode: %v", err)
			}
			if !reflect.DeepEqual(env, g.env) {
				t.Errorf("pinned frame decoded to\n %+v\nwant\n %+v", env, g.env)
			}
		})
	}
}
