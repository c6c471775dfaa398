package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"luckystore/internal/types"
)

// This file pins the sunset of wire formats 1 and 2 (DESIGN.md §4):
// v3 is the only version decoded. retiredFrames are frames exactly as
// v1 and v2 peers emitted them — v1 tagged values without the writer
// varint and PW_ACKs without the max stamp, v2 PWs without the spec
// byte — written down as hex from the encoders those formats had. Each
// must be refused with ErrMalformed naming its version, before any of
// its body is read.
var retiredFrames = []struct {
	name string
	ver  byte
	hex  string
}{
	{"v1_pw", 1, "00000018010177027330010e0e0276370c027636010272310a016604"},
	{"v1_pwack", 1, "0000000d010273300177020e0102723006"},
	{"v1_w", 1, "0000000e01017702733103040e0e02763700"},
	{"v1_read", 1, "0000000a01027230027332050802"},
	{"v1_readack", 1, "00000019010273320272300608020e0276370c0276360c027636000000"},
	{"v1_keyed", 1, "000000170101770273300b0875736572732f343203060404017800"},
	{"v2_pw", 2, "0000001c02027732027330011212040276391002027638010272300e04016606"},
	{"v2_pwack", 2, "000000100202733002773202121602010272310a"},
	{"v2_keyed", 2, "00000016020277310273320b03686f7401060602016b00000000"},
}

func retiredFrame(t testing.TB, name string) []byte {
	t.Helper()
	for _, rf := range retiredFrames {
		if rf.name == name {
			b, err := hex.DecodeString(rf.hex)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	t.Fatalf("no retired frame %q", name)
	return nil
}

// assertRetiredRefused: every retired frame of version ver is refused
// with ErrMalformed naming the version, after DecodeFrame has read no
// more than the length prefix and the version byte.
func assertRetiredRefused(t *testing.T, ver byte) {
	t.Helper()
	for _, rf := range retiredFrames {
		if rf.ver != ver {
			continue
		}
		cr := &countingReader{r: bytes.NewReader(retiredFrame(t, rf.name))}
		_, err := DecodeFrame(cr)
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", rf.name, err)
			continue
		}
		if want := fmt.Sprintf("version %d", ver); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %s", rf.name, err, want)
		}
		if cr.n > 5 {
			t.Errorf("%s: decoder read %d bytes, want only the length prefix and version byte", rf.name, cr.n)
		}
	}
}

// TestDecodeV1Frames: no v1 frame decodes.
func TestDecodeV1Frames(t *testing.T) { assertRetiredRefused(t, 1) }

// TestDecodeV2Frames: no v2 frame decodes.
func TestDecodeV2Frames(t *testing.T) { assertRetiredRefused(t, 2) }

// TestV2CarriesWriterThroughTCPFraming: a full-stamp tagged value
// round-trips the framed codec with its writer component intact — the
// on-wire property the MWMR protocol depends on.
func TestV2CarriesWriterThroughTCPFraming(t *testing.T) {
	env := Envelope{From: types.WriterIDN(3), To: "s0", Msg: PW{
		TS: 9,
		PW: types.Tagged{TS: 9, W: 3, Val: "mw"},
		W:  types.Tagged{TS: 8, W: 1, Val: "prev"},
	}}
	var buf bytes.Buffer
	if err := EncodeFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Errorf("got %+v, want %+v", got, env)
	}
	if pw := got.Msg.(PW); pw.PW.Stamp() != (types.Stamp{Seq: 9, Writer: 3}) {
		t.Errorf("writer component lost: %v", pw.PW)
	}
}

// TestV3PWIsV2PlusSpecByte pins how v3 grew out of v2: the current
// encoding of a PW is the retired v2 encoding of the same pre-write
// with exactly one trailing flag byte.
func TestV3PWIsV2PlusSpecByte(t *testing.T) {
	v2Body := retiredFrame(t, "v2_pw")[5:] // past the length prefix and version byte
	env := Envelope{From: types.WriterIDN(2), To: "s0", Msg: PW{TS: 9,
		PW: types.Tagged{TS: 9, W: 2, Val: "v9"}, W: types.Tagged{TS: 8, W: 1, Val: "v8"},
		Frozen: []types.FrozenEntry{{Reader: types.ReaderID(0), PW: types.Tagged{TS: 7, W: 2, Val: "f"}, TSR: 3}}}}
	for _, spec := range []bool{false, true} {
		pw := env.Msg.(PW)
		pw.Spec = spec
		v3, err := AppendEnvelope(nil, Envelope{From: env.From, To: env.To, Msg: pw})
		if err != nil {
			t.Fatal(err)
		}
		flag := byte(0)
		if spec {
			flag = 1
		}
		want := append(append([]byte(nil), v2Body...), flag)
		if !bytes.Equal(v3, want) {
			t.Errorf("spec=%v: v3 encoding is not v2+flag:\n v3   %x\n want %x", spec, v3, want)
		}
	}
}

// TestPWNackRoundTripAndVersionGate: PW_NACK frames round-trip on the
// current codec, and the same bytes under a v1 or v2 version byte are
// refused — no retired format ever carried the kind.
func TestPWNackRoundTripAndVersionGate(t *testing.T) {
	env := Envelope{From: "s1", To: types.WriterIDN(2),
		Msg: PWNack{TS: 9, Max: types.Stamp{Seq: 12, Writer: 1}}}
	frame, err := AppendFrame(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Errorf("got %+v, want %+v", got, env)
	}
	for _, ver := range []byte{1, 2} {
		bad := append([]byte(nil), frame...)
		bad[4] = ver
		if _, err := DecodeFrame(bytes.NewReader(bad)); !errors.Is(err, ErrMalformed) {
			t.Errorf("PW_NACK inside a v%d frame: err = %v, want ErrMalformed", ver, err)
		}
	}
}
