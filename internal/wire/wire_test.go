package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"luckystore/internal/types"
)

func validMessages() []Message {
	return []Message{
		PW{TS: 1, PW: types.Tagged{TS: 1, Val: "v"}, W: types.Bottom()},
		PW{TS: 5, PW: types.Tagged{TS: 5, Val: "v5"}, W: types.Tagged{TS: 4, Val: "v4"},
			Frozen: []types.FrozenEntry{{Reader: types.ReaderID(1), PW: types.Tagged{TS: 5, Val: "v5"}, TSR: 3}}},
		PWAck{TS: 1},
		PWAck{TS: 2, NewRead: []types.ReadStamp{{Reader: types.ReaderID(0), TSR: 7}}},
		W{Round: 2, Tag: 9, C: types.Tagged{TS: 9, Val: "x"}},
		W{Round: 3, Tag: 9, C: types.Tagged{TS: 9, Val: "x"}},
		W{Round: 1, Tag: 4, C: types.Bottom()},
		WAck{Round: 2, Tag: 9},
		Read{TSR: 1, Round: 1},
		Read{TSR: 3, Round: 4},
		ReadAck{TSR: 3, Round: 1, PW: types.Tagged{TS: 2, Val: "b"},
			W: types.Tagged{TS: 1, Val: "a"}, VW: types.Bottom(), Frozen: types.InitialFrozen()},
		ABDWrite{Seq: 1, C: types.Tagged{TS: 1, Val: "v"}},
		ABDWriteAck{Seq: 1},
		ABDRead{Seq: 2},
		ABDReadAck{Seq: 2, C: types.Bottom()},
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	for _, m := range validMessages() {
		if err := Validate(m); err != nil {
			t.Errorf("Validate(%v %+v) = %v, want nil", m.Kind(), m, err)
		}
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	tests := []struct {
		name string
		m    Message
	}{
		{"nil message", nil},
		{"PW zero ts", PW{TS: 0, PW: types.Bottom(), W: types.Bottom()}},
		{"PW negative ts", PW{TS: -1, PW: types.Bottom(), W: types.Bottom()}},
		{"PW non-bottom value at ts0", PW{TS: 1, PW: types.Tagged{TS: 0, Val: "evil"}, W: types.Bottom()}},
		{"PW negative pair ts", PW{TS: 1, PW: types.Tagged{TS: -3, Val: "v"}, W: types.Bottom()}},
		{"PW frozen for non-reader", PW{TS: 1, PW: types.Tagged{TS: 1, Val: "v"}, W: types.Bottom(),
			Frozen: []types.FrozenEntry{{Reader: types.ServerID(0), PW: types.Tagged{TS: 1, Val: "v"}}}}},
		{"PW duplicate frozen reader", PW{TS: 1, PW: types.Tagged{TS: 1, Val: "v"}, W: types.Bottom(),
			Frozen: []types.FrozenEntry{
				{Reader: types.ReaderID(0), PW: types.Tagged{TS: 1, Val: "v"}},
				{Reader: types.ReaderID(0), PW: types.Tagged{TS: 1, Val: "v"}},
			}}},
		{"PW frozen bad pair", PW{TS: 1, PW: types.Tagged{TS: 1, Val: "v"}, W: types.Bottom(),
			Frozen: []types.FrozenEntry{{Reader: types.ReaderID(0), PW: types.Tagged{TS: 0, Val: "x"}}}}},
		{"PWAck zero ts", PWAck{TS: 0}},
		{"PWAck newread non-reader", PWAck{TS: 1, NewRead: []types.ReadStamp{{Reader: "w", TSR: 1}}}},
		{"W round 0", W{Round: 0, Tag: 1, C: types.Bottom()}},
		{"W round 4", W{Round: 4, Tag: 1, C: types.Bottom()}},
		{"W bad pair", W{Round: 1, Tag: 1, C: types.Tagged{TS: 0, Val: "x"}}},
		{"WAck round 0", WAck{Round: 0}},
		{"Read round 0", Read{TSR: 1, Round: 0}},
		{"Read zero tsr", Read{TSR: 0, Round: 1}},
		{"ReadAck round 0", ReadAck{Round: 0}},
		{"ReadAck bad pw", ReadAck{Round: 1, PW: types.Tagged{TS: -1, Val: "v"}}},
		{"ReadAck bad frozen", ReadAck{Round: 1, Frozen: types.FrozenPair{PW: types.Tagged{TS: 0, Val: "x"}}}},
		{"ABDWrite bad pair", ABDWrite{C: types.Tagged{TS: -1}}},
		{"ABDReadAck bad pair", ABDReadAck{C: types.Tagged{TS: 0, Val: "z"}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(tc.m)
			if err == nil {
				t.Fatalf("Validate accepted malformed message %+v", tc.m)
			}
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("error %v does not wrap ErrMalformed", err)
			}
		})
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindPW: "PW", KindPWAck: "PW_ACK", KindW: "W", KindWAck: "WRITE_ACK",
		KindRead: "READ", KindReadAck: "READ_ACK",
		KindABDWrite: "ABD_WRITE", KindABDWriteAck: "ABD_WRITE_ACK",
		KindABDRead: "ABD_READ", KindABDReadAck: "ABD_READ_ACK",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(0).String(); !strings.Contains(got, "invalid") {
		t.Errorf("Kind(0).String() = %q, want invalid marker", got)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, m := range validMessages() {
		env := Envelope{From: types.ServerID(1), To: types.ReaderID(0), Msg: m}
		var buf bytes.Buffer
		if err := EncodeFrame(&buf, env); err != nil {
			t.Fatalf("EncodeFrame(%v): %v", m.Kind(), err)
		}
		got, err := DecodeFrame(&buf)
		if err != nil {
			t.Fatalf("DecodeFrame(%v): %v", m.Kind(), err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Errorf("round trip %v:\n got %+v\nwant %+v", m.Kind(), got, env)
		}
	}
}

func TestFrameMultipleSequential(t *testing.T) {
	var buf bytes.Buffer
	msgs := validMessages()
	for _, m := range msgs {
		if err := EncodeFrame(&buf, Envelope{From: "w", To: "s0", Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range msgs {
		env, err := DecodeFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if env.Msg.Kind() != msgs[i].Kind() {
			t.Errorf("frame %d kind = %v, want %v", i, env.Msg.Kind(), msgs[i].Kind())
		}
	}
	if _, err := DecodeFrame(&buf); err != io.EOF {
		t.Errorf("after last frame err = %v, want io.EOF", err)
	}
}

func TestDecodeFrameRejectsOversizedHeader(t *testing.T) {
	buf := bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	_, err := DecodeFrame(buf)
	if !errors.Is(err, ErrMalformed) {
		t.Errorf("oversized frame err = %v, want ErrMalformed", err)
	}
}

func TestDecodeFrameRejectsGarbageBody(t *testing.T) {
	body := []byte("this is not a frame")
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, byte(len(body))})
	buf.Write(body)
	if _, err := DecodeFrame(&buf); !errors.Is(err, ErrMalformed) {
		t.Errorf("garbage body err = %v, want ErrMalformed", err)
	}
}

func TestDecodeFrameRejectsInvalidDecodedMessage(t *testing.T) {
	// A structurally decodable envelope whose message fails Validate:
	// round 0 W message.
	var buf bytes.Buffer
	env := Envelope{From: "w", To: "s0", Msg: W{Round: 2, Tag: 1, C: types.Bottom()}}
	if err := EncodeFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	// Mutating encoded bytes reliably is brittle; instead encode an invalid
	// message directly through the encoder path used by a malicious peer.
	var evil bytes.Buffer
	if err := EncodeFrame(&evil, Envelope{From: "w", To: "s0", Msg: Read{TSR: 0, Round: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(&evil); !errors.Is(err, ErrMalformed) {
		t.Errorf("invalid message err = %v, want ErrMalformed", err)
	}
}

func TestDecodeFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeFrame(&buf, Envelope{From: "w", To: "s0", Msg: ABDRead{Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	truncated := bytes.NewReader(whole[:len(whole)-2])
	if _, err := DecodeFrame(truncated); err == nil {
		t.Error("DecodeFrame accepted truncated frame")
	}
}

// Frames must round-trip for arbitrary value payloads, including binary
// data that is not valid UTF-8.
func TestFrameRoundTripQuick(t *testing.T) {
	f := func(ts uint32, val []byte, round uint8) bool {
		c := types.Tagged{TS: types.TS(ts%1000) + 1, Val: types.Value(val)}
		env := Envelope{
			From: types.WriterID(),
			To:   types.ServerID(int(round) % 7),
			Msg:  W{Round: int(round)%3 + 1, Tag: int64(ts), C: c},
		}
		var buf bytes.Buffer
		if err := EncodeFrame(&buf, env); err != nil {
			return false
		}
		got, err := DecodeFrame(&buf)
		return err == nil && reflect.DeepEqual(got, env)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
