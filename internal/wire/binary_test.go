package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"luckystore/internal/types"
)

// interopEnvelopes is the cross-version interop corpus: one entry per
// message kind plus the documented edge cases — empty and maximum-size
// frozen sets, maximum-length keys, nested batch-of-keyed, binary and
// empty values. Every entry must survive encode→decode deeply equal;
// together they pin the wire format against accidental change.
func interopEnvelopes() []struct {
	name string
	env  Envelope
} {
	maxFrozen := make([]types.FrozenEntry, maxFrozenEntries)
	for i := range maxFrozen {
		maxFrozen[i] = types.FrozenEntry{
			Reader: types.ReaderID(i),
			PW:     types.Tagged{TS: types.TS(i + 1), Val: "fv"},
			TSR:    types.ReaderTS(i),
		}
	}
	maxKey := strings.Repeat("k", MaxKeyLen)
	bigBatch := Batch{Msgs: make([]Message, 1000)}
	for i := range bigBatch.Msgs {
		bigBatch.Msgs[i] = Keyed{
			Key:   fmt.Sprintf("key-%03d", i),
			Inner: W{Round: 2, Tag: int64(i), C: types.Tagged{TS: types.TS(i + 1), Val: types.Value(fmt.Sprintf("val-%03d", i))}},
		}
	}
	env := func(name string, m Message) struct {
		name string
		env  Envelope
	} {
		return struct {
			name string
			env  Envelope
		}{name, Envelope{From: types.WriterID(), To: types.ServerID(3), Msg: m}}
	}
	return []struct {
		name string
		env  Envelope
	}{
		env("pw_empty_frozen", PW{TS: 7, PW: types.Tagged{TS: 7, Val: "v7"}, W: types.Tagged{TS: 6, Val: "v6"}}),
		env("pw_max_frozen", PW{TS: 9, PW: types.Tagged{TS: 9, Val: "v"}, W: types.Bottom(), Frozen: maxFrozen}),
		env("pwack", PWAck{TS: 3, NewRead: []types.ReadStamp{
			{Reader: types.ReaderID(0), TSR: 5},
			{Reader: types.ReaderID(200), TSR: 6}, // outside the intern table
		}}),
		env("pwack_empty", PWAck{TS: 1}),
		env("pw_mw", PW{TS: 7, PW: types.Tagged{TS: 7, W: 2, Val: "v7"},
			W: types.Tagged{TS: 7, W: 1, Val: "v6"}}),
		env("pwack_max", PWAck{TS: 3, Max: types.Stamp{Seq: 9, Writer: 4}}),
		env("pw_spec", PW{TS: 8, PW: types.Tagged{TS: 8, W: 2, Val: "spec"},
			W: types.Tagged{TS: 7, W: 2, Val: "prev"}, Spec: true}),
		env("pwnack", PWNack{TS: 8, Max: types.Stamp{Seq: 10, Writer: 1}}),
		env("readack_mw", ReadAck{TSR: 2, Round: 2,
			PW: types.Tagged{TS: 5, W: 3, Val: "pw"}, W: types.Tagged{TS: 5, W: 1, Val: "w"},
			VW:     types.Tagged{TS: 4, W: 2, Val: "vw"},
			Frozen: types.FrozenPair{PW: types.Tagged{TS: 3, W: 1, Val: "fz"}, TSR: 2}}),
		env("w_frozen", W{Round: 3, Tag: -4, C: types.Tagged{TS: 4, Val: types.Value([]byte{0, 1, 0xFF, 0xFE})},
			Frozen: []types.FrozenEntry{{Reader: types.ReaderID(1), PW: types.Tagged{TS: 4, Val: "f"}, TSR: 2}}}),
		env("wack", WAck{Round: 1, Tag: 1 << 60}),
		env("read", Read{TSR: 12, Round: 4}),
		env("readack", ReadAck{TSR: 12, Round: 2,
			PW: types.Tagged{TS: 11, Val: "pw-val"}, W: types.Tagged{TS: 10, Val: "w-val"},
			VW: types.Tagged{TS: 9, Val: ""}, Frozen: types.FrozenPair{PW: types.Tagged{TS: 8, Val: "fz"}, TSR: 12}}),
		env("readack_bottom", ReadAck{TSR: 1, Round: 1, PW: types.Bottom(), W: types.Bottom(),
			VW: types.Bottom(), Frozen: types.InitialFrozen()}),
		env("abdwrite", ABDWrite{Seq: -9, C: types.Tagged{TS: 2, Val: "abd"}}),
		env("abdwriteack", ABDWriteAck{Seq: 1 << 40}),
		env("abdread", ABDRead{Seq: 0}),
		env("abdreadack", ABDReadAck{Seq: 77, C: types.Tagged{TS: 1, Val: types.Value(strings.Repeat("x", 4096))}}),
		env("keyed", Keyed{Key: "users/42", Inner: Read{TSR: 1, Round: 1}}),
		env("keyed_max_key", Keyed{Key: maxKey, Inner: W{Round: 2, Tag: 1, C: types.Tagged{TS: 1, Val: "v"}}}),
		env("batch_of_keyed", sampleBatch()),
		env("batch_1000", bigBatch),
		env("batch_single", Batch{Msgs: []Message{Keyed{Key: "solo", Inner: Read{TSR: 2, Round: 1}}}}),
	}
}

// TestBinaryRoundTripAllKinds is the interop table: every message kind
// (and its edge cases) must decode to a deeply-equal envelope.
func TestBinaryRoundTripAllKinds(t *testing.T) {
	for _, tc := range interopEnvelopes() {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := EncodeFrame(&buf, tc.env); err != nil {
				t.Fatalf("EncodeFrame: %v", err)
			}
			got, err := DecodeFrame(&buf)
			if err != nil {
				t.Fatalf("DecodeFrame: %v", err)
			}
			if !reflect.DeepEqual(got, tc.env) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tc.env)
			}
			// The append-based API must agree with the streaming one.
			frame, err := AppendFrame(nil, tc.env)
			if err != nil {
				t.Fatalf("AppendFrame: %v", err)
			}
			got2, err := DecodeFrame(bytes.NewReader(frame))
			if err != nil {
				t.Fatalf("DecodeFrame(AppendFrame bytes): %v", err)
			}
			if !reflect.DeepEqual(got2, tc.env) {
				t.Errorf("AppendFrame round trip mismatch")
			}
		})
	}
}

// TestDecodeFrameRejectsUnknownVersion pins the versioning contract: a
// frame carrying any format version byte but the current one — a
// retired one included — is rejected with ErrMalformed, so no other
// format can ever be silently misread.
func TestDecodeFrameRejectsUnknownVersion(t *testing.T) {
	frame, err := AppendFrame(nil, Envelope{From: "w", To: "s0", Msg: Read{TSR: 1, Round: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{0, 1, 2, FormatVersion + 1, 0x7F, 0xFF} {
		bad := append([]byte(nil), frame...)
		bad[4] = v // the version byte follows the 4-byte length prefix
		_, derr := DecodeFrame(bytes.NewReader(bad))
		if !errors.Is(derr, ErrMalformed) {
			t.Errorf("version %d: err = %v, want ErrMalformed", v, derr)
		}
	}
}

// TestDecodeFrameRejectsBadVersionBeforeBody: an unsupported version
// must be rejected as soon as the version byte arrives, not after the
// claimed body (up to 16 MiB) has been transferred. The reader below
// counts bytes served; a correct decoder stops after the length prefix
// and the version byte.
func TestDecodeFrameRejectsBadVersionBeforeBody(t *testing.T) {
	const claimed = 8 << 20
	frame := binary.BigEndian.AppendUint32(nil, claimed)
	frame = append(frame, make([]byte, claimed)...)
	for _, v := range []byte{1, 2, FormatVersion + 1} {
		frame[4] = v
		cr := &countingReader{r: bytes.NewReader(frame)}
		if _, err := DecodeFrame(cr); !errors.Is(err, ErrMalformed) {
			t.Fatalf("version %d: err = %v, want ErrMalformed", v, err)
		}
		if cr.n > 5 {
			t.Errorf("version %d: decoder read %d bytes, want only the length prefix and version byte", v, cr.n)
		}
	}
}

type countingReader struct {
	r *bytes.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestAppendEnvelopeRejectsOversizedIdentity: the encoder enforces the
// same identity cap as the decoder, so it can never emit a frame a
// compliant peer refuses.
func TestAppendEnvelopeRejectsOversizedIdentity(t *testing.T) {
	long := types.ProcID(strings.Repeat("x", maxWireIDLen+1))
	msg := Read{TSR: 1, Round: 1}
	if _, err := AppendEnvelope(nil, Envelope{From: long, To: "s0", Msg: msg}); err == nil {
		t.Error("oversized From accepted")
	}
	if _, err := AppendFrame(nil, Envelope{From: "w", To: long, Msg: msg}); err == nil {
		t.Error("oversized To accepted")
	}
	if _, err := AppendCoalesced(nil, long, "s0", []Message{Keyed{Key: "k", Inner: msg}}); err == nil {
		t.Error("AppendCoalesced accepted oversized from")
	}
}

// TestDecodeMessageRejectsForgedNesting hand-crafts message bytes no
// correct encoder emits: keyed inside keyed, batch inside keyed, batch
// inside batch, unknown kinds, truncations. Behind a valid from/to
// header, all must fail DecodeEnvelope cleanly with ErrMalformed.
func TestDecodeMessageRejectsForgedNesting(t *testing.T) {
	key := func(buf []byte) []byte { // keyed header with key "k"
		buf = append(buf, byte(KindKeyed))
		buf = binary.AppendUvarint(buf, 1)
		return append(buf, 'k')
	}
	read := func(buf []byte) []byte { // valid Read{TSR:1, Round:1}
		buf = append(buf, byte(KindRead))
		buf = binary.AppendVarint(buf, 1)
		return binary.AppendVarint(buf, 1)
	}
	tests := []struct {
		name string
		b    []byte
	}{
		{"keyed in keyed", read(key(key(nil)))},
		{"batch in keyed", append(key(nil), byte(KindBatch))},
		{"batch in batch", []byte{byte(KindBatch), byte(KindBatch)}},
		{"unkeyed in batch", read([]byte{byte(KindBatch)})},
		{"unknown kind", []byte{0x7F}},
		{"zero kind", []byte{0x00}},
		{"empty input", nil},
		{"empty batch", []byte{byte(KindBatch)}},
		{"truncated keyed", key(nil)},
		{"truncated read", []byte{byte(KindRead)}},
		{"key length past end", []byte{byte(KindKeyed), 200}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			body := appendString(appendString(nil, "w"), "s0")
			_, err := DecodeEnvelope(append(body, tc.b...))
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("err = %v, want ErrMalformed", err)
			}
		})
	}
}

// TestDecodeEnvelopeRejectsTrailingBytes: a frame must be consumed
// exactly; trailing garbage after a complete message is forged.
func TestDecodeEnvelopeRejectsTrailingBytes(t *testing.T) {
	body, err := AppendEnvelope(nil, Envelope{From: "w", To: "s0", Msg: Read{TSR: 1, Round: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelope(append(body, 0xAA)); !errors.Is(err, ErrMalformed) {
		t.Errorf("trailing byte: err = %v, want ErrMalformed", err)
	}
}

// TestDecodeFrameRejectsOverlongBatch crafts a frame holding more
// entries than MaxBatchEntries; the decoder must reject it rather than
// build an enormous slice.
func TestDecodeFrameRejectsOverlongBatch(t *testing.T) {
	body := []byte{FormatVersion}
	body = appendString(body, "w")
	body = appendString(body, "s0")
	body = append(body, byte(KindBatch))
	entry := func(buf []byte) []byte {
		buf = append(buf, byte(KindKeyed))
		buf = binary.AppendUvarint(buf, 1)
		buf = append(buf, 'k')
		buf = append(buf, byte(KindRead))
		buf = binary.AppendVarint(buf, 1)
		return binary.AppendVarint(buf, 1)
	}
	for i := 0; i < MaxBatchEntries+1; i++ {
		body = entry(body)
	}
	var frame []byte
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(body)))
	frame = append(frame, body...)
	_, err := DecodeFrame(bytes.NewReader(frame))
	if !errors.Is(err, ErrMalformed) {
		t.Errorf("overlong batch: err = %v, want ErrMalformed", err)
	}
}

// TestDecodeFrameForgedCountsDontOverallocate sends frames whose set
// counts promise far more entries than the body holds. They must fail
// as malformed — quickly, and without the decoder allocating anything
// near what the counts claim (exercised implicitly: a 64 Ki-entry
// allocation per call would make this test conspicuously slow and
// OOM-prone under -race).
func TestDecodeFrameForgedCountsDontOverallocate(t *testing.T) {
	for name, build := range map[string]func() []byte{
		"frozen": func() []byte {
			body := []byte{FormatVersion}
			body = appendString(body, "w")
			body = appendString(body, "s0")
			body = append(body, byte(KindPW))
			body = binary.AppendVarint(body, 1)
			body = appendTagged(body, types.Tagged{TS: 1, Val: "v"})
			body = appendTagged(body, types.Bottom())
			return binary.AppendUvarint(body, maxFrozenEntries) // ...and no entries follow
		},
		"newread": func() []byte {
			body := []byte{FormatVersion}
			body = appendString(body, "s0")
			body = appendString(body, "w")
			body = append(body, byte(KindPWAck))
			body = binary.AppendVarint(body, 1)
			body = binary.AppendVarint(body, 0) // max stamp seq
			body = binary.AppendVarint(body, 0) // max stamp writer
			return binary.AppendUvarint(body, maxFrozenEntries)
		},
	} {
		t.Run(name, func(t *testing.T) {
			body := build()
			var frame []byte
			frame = binary.BigEndian.AppendUint32(frame, uint32(len(body)))
			frame = append(frame, body...)
			for i := 0; i < 1000; i++ {
				if _, err := DecodeFrame(bytes.NewReader(frame)); !errors.Is(err, ErrMalformed) {
					t.Fatalf("forged count: err = %v, want ErrMalformed", err)
				}
			}
		})
	}
}

// TestAppendCoalescedMatchesCoalesceKeyed: the direct-encode path must
// put exactly the frames on the wire that the generic CoalesceKeyed +
// EncodeFrame path would — same splits, same order, same bytes.
func TestAppendCoalescedMatchesCoalesceKeyed(t *testing.T) {
	big := types.Value(strings.Repeat("B", 3<<20))
	cases := map[string][]Message{
		"empty": nil,
		"single keyed": {
			Keyed{Key: "a", Inner: Read{TSR: 1, Round: 1}},
		},
		"run and break": {
			Keyed{Key: "a", Inner: Read{TSR: 1, Round: 1}},
			Keyed{Key: "b", Inner: W{Round: 2, Tag: 3, C: types.Tagged{TS: 3, Val: "x"}}},
			ABDRead{Seq: 7},
			Keyed{Key: "c", Inner: Read{TSR: 2, Round: 1}},
			Keyed{Key: "d", Inner: Read{TSR: 3, Round: 1}},
		},
		"only unkeyed": {
			ABDWrite{Seq: 1, C: types.Tagged{TS: 1, Val: "v"}},
			ABDRead{Seq: 2},
		},
		"byte budget split": {
			Keyed{Key: "k0", Inner: W{Round: 2, Tag: 1, C: types.Tagged{TS: 1, Val: big}}},
			Keyed{Key: "k1", Inner: W{Round: 2, Tag: 1, C: types.Tagged{TS: 1, Val: big}}},
			Keyed{Key: "k2", Inner: W{Round: 2, Tag: 1, C: types.Tagged{TS: 1, Val: big}}},
			Keyed{Key: "k3", Inner: W{Round: 2, Tag: 1, C: types.Tagged{TS: 1, Val: big}}},
		},
		// approxSize over-estimates mid-size messages (~283 estimated vs
		// ~170 encoded here), so the estimate-sum crosses the byte budget
		// thousands of entries before the actual bytes would. Both paths
		// must split at the same entry anyway — the direct path follows
		// CoalesceKeyed's accounting, not its own byte count.
		"estimate-vs-actual split": func() []Message {
			val := types.Value(strings.Repeat("m", 150))
			msgs := make([]Message, 32000)
			for i := range msgs {
				msgs[i] = Keyed{Key: "k", Inner: W{Round: 2, Tag: int64(i), C: types.Tagged{TS: 1, Val: val}}}
			}
			return msgs
		}(),
	}
	from, to := types.WriterID(), types.ServerID(0)
	for name, msgs := range cases {
		t.Run(name, func(t *testing.T) {
			direct, err := AppendCoalesced(nil, from, to, msgs)
			if err != nil {
				t.Fatalf("AppendCoalesced: %v", err)
			}
			var generic bytes.Buffer
			for _, m := range CoalesceKeyed(msgs) {
				if err := EncodeFrame(&generic, Envelope{From: from, To: to, Msg: m}); err != nil {
					t.Fatalf("EncodeFrame: %v", err)
				}
			}
			if !bytes.Equal(direct, generic.Bytes()) {
				t.Fatalf("direct path emitted %d bytes, generic %d — frame streams differ",
					len(direct), generic.Len())
			}
			// And everything must decode back to the original sequence.
			var decoded []Message
			r := bytes.NewReader(direct)
			for {
				env, err := DecodeFrame(r)
				if err != nil {
					break
				}
				for _, e := range Expand(env) {
					decoded = append(decoded, e.Msg)
				}
			}
			if len(decoded) != len(msgs) {
				t.Fatalf("decoded %d messages, want %d", len(decoded), len(msgs))
			}
			for i := range msgs {
				if !reflect.DeepEqual(decoded[i], msgs[i]) {
					t.Errorf("message %d: got %+v, want %+v", i, decoded[i], msgs[i])
				}
			}
		})
	}
}

// TestAppendCoalescedLongIdentities: the single-entry batch collapse
// must locate the KindBatch byte via its recorded offset, not by
// assuming 1-byte string length prefixes — identities of 128–255 bytes
// take 2-byte uvarint lengths and are legal at the wire layer.
func TestAppendCoalescedLongIdentities(t *testing.T) {
	from := types.ProcID(strings.Repeat("f", 200))
	to := types.ProcID(strings.Repeat("t", 131))
	msgs := []Message{Keyed{Key: "solo", Inner: Read{TSR: 3, Round: 1}}}
	direct, err := AppendCoalesced(nil, from, to, msgs)
	if err != nil {
		t.Fatalf("AppendCoalesced: %v", err)
	}
	var generic bytes.Buffer
	for _, m := range CoalesceKeyed(msgs) {
		if err := EncodeFrame(&generic, Envelope{From: from, To: to, Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(direct, generic.Bytes()) {
		t.Fatal("single-entry collapse corrupted a frame with long identities")
	}
	env, err := DecodeFrame(bytes.NewReader(direct))
	if err != nil {
		t.Fatalf("collapsed frame does not decode: %v", err)
	}
	if env.From != from || env.To != to || !reflect.DeepEqual(env.Msg, msgs[0]) {
		t.Errorf("collapsed frame decoded to %+v", env)
	}
}

// TestAppendCoalescedDropsUnencodable: a message that cannot encode is
// skipped (first error reported) without corrupting neighboring frames.
func TestAppendCoalescedDropsUnencodable(t *testing.T) {
	msgs := []Message{
		Keyed{Key: "a", Inner: Read{TSR: 1, Round: 1}},
		Keyed{Key: "bad", Inner: nil},
		Keyed{Key: "b", Inner: Read{TSR: 2, Round: 1}},
	}
	buf, err := AppendCoalesced(nil, "w", "s0", msgs)
	if err == nil {
		t.Fatal("expected an encode error for the nil inner message")
	}
	var decoded []Message
	r := bytes.NewReader(buf)
	for {
		env, derr := DecodeFrame(r)
		if derr != nil {
			break
		}
		for _, e := range Expand(env) {
			decoded = append(decoded, e.Msg)
		}
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d messages, want the 2 encodable ones", len(decoded))
	}
}

// TestValidFrozenSetLinearScan covers the small-set duplicate detection
// (≤ smallFrozenSet entries scan linearly, no map) on both sides of the
// threshold.
func TestValidFrozenSetLinearScan(t *testing.T) {
	mk := func(n int, dup bool) []types.FrozenEntry {
		fs := make([]types.FrozenEntry, n)
		for i := range fs {
			fs[i] = types.FrozenEntry{Reader: types.ReaderID(i), PW: types.Tagged{TS: 1, Val: "v"}}
		}
		if dup && n >= 2 {
			fs[n-1].Reader = fs[0].Reader
		}
		return fs
	}
	for _, n := range []int{2, smallFrozenSet, smallFrozenSet + 1, 40} {
		if err := validFrozenSet(mk(n, false)); err != nil {
			t.Errorf("unique set of %d rejected: %v", n, err)
		}
		if err := validFrozenSet(mk(n, true)); !errors.Is(err, ErrMalformed) {
			t.Errorf("duplicate in set of %d: err = %v, want ErrMalformed", n, err)
		}
	}
}
