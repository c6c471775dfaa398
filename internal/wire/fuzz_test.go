package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"luckystore/internal/types"
)

// FuzzDecodeFrame hammers the hand-rolled decoder with arbitrary byte
// streams. The contract under fuzzing: never panic, never decode
// something Validate rejects, and anything that does decode must
// re-encode and decode back to the same envelope (the format is
// canonical for decoded values).
func FuzzDecodeFrame(f *testing.F) {
	// Seeds: valid frames of several shapes, then mutations a hostile
	// peer would try — truncation, bad version, forged length, garbage.
	for _, tc := range interopEnvelopes() {
		frame, err := AppendFrame(nil, tc.env)
		if err != nil {
			f.Fatal(err)
		}
		if len(frame) > 1<<16 {
			continue // keep the corpus small; the big shapes add little
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-2])
		bad := append([]byte(nil), frame...)
		bad[4] ^= 0xFF
		f.Add(bad)
	}
	// Retired v1 and v2 frames must be refused however the fuzzer
	// mutates them; flipping the version byte to 3 explores the
	// near-miss layouts a confused peer would send.
	for _, rf := range retiredFrames {
		frame := retiredFrame(f, rf.name)
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		relabeled := append([]byte(nil), frame...)
		relabeled[4] = FormatVersion
		f.Add(relabeled)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, FormatVersion, 0})
	f.Add([]byte{0, 0, 0, 2, 2, 0})
	f.Add([]byte{0, 0, 0, 2, 1, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrameSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeFrame(bytes.NewReader(data))
		if err != nil {
			// Against a full in-memory stream the only legitimate error
			// classes are clean EOF, truncation, and ErrMalformed;
			// anything else is a decoder bug.
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrMalformed) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if verr := Validate(env.Msg); verr != nil {
			t.Fatalf("DecodeFrame returned an invalid message: %v", verr)
		}
		var buf bytes.Buffer
		if eerr := EncodeFrame(&buf, env); eerr != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", eerr)
		}
		again, derr := DecodeFrame(&buf)
		if derr != nil {
			t.Fatalf("re-encoded envelope does not decode: %v", derr)
		}
		if !reflect.DeepEqual(again, env) {
			t.Fatalf("re-encode round trip diverged:\n got %+v\nwant %+v", again, env)
		}
	})
}

// FuzzEncodeDecode fuzzes the round-trip property over structured
// message space: any message the fuzzer can assemble either fails
// Validate (and then must fail DecodeFrame the same way, since
// DecodeFrame validates) or round-trips deeply equal.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(uint8(0), int64(1), int64(1), uint8(1), "key", []byte("val"), []byte("val2"), uint8(0), int64(1))
	f.Add(uint8(5), int64(12), int64(3), uint8(2), "k", []byte{0, 0xFF}, []byte{}, uint8(3), int64(9))
	f.Add(uint8(10), int64(-5), int64(-7), uint8(200), "", []byte("x"), []byte("y"), uint8(250), int64(-1))

	f.Fuzz(func(t *testing.T, sel uint8, ts, tag int64, round uint8, key string, val, val2 []byte, rdr uint8, tsr int64) {
		c := types.Tagged{TS: types.TS(ts), W: types.WID(sel % 5), Val: types.Value(val)}
		c2 := types.Tagged{TS: types.TS(tag), W: types.WID(round % 3), Val: types.Value(val2)}
		frozen := []types.FrozenEntry{{Reader: types.ReaderID(int(rdr)), PW: c, TSR: types.ReaderTS(tsr)}}
		var m Message
		switch sel % 14 {
		case 0:
			m = PW{TS: types.TS(ts), PW: c, W: c2, Frozen: frozen}
		case 1:
			m = PWAck{TS: types.TS(ts), Max: types.Stamp{Seq: types.TS(tag), Writer: types.WID(round % 7)},
				NewRead: []types.ReadStamp{{Reader: types.ReaderID(int(rdr)), TSR: types.ReaderTS(tsr)}}}
		case 2:
			m = W{Round: int(round), Tag: tag, C: c, Frozen: frozen}
		case 3:
			m = WAck{Round: int(round), Tag: tag}
		case 4:
			m = Read{TSR: types.ReaderTS(tsr), Round: int(round)}
		case 5:
			m = ReadAck{TSR: types.ReaderTS(tsr), Round: int(round), PW: c, W: c2, VW: c,
				Frozen: types.FrozenPair{PW: c2, TSR: types.ReaderTS(tsr)}}
		case 6:
			m = ABDWrite{Seq: tag, C: c}
		case 7:
			m = ABDWriteAck{Seq: tag}
		case 8:
			m = ABDRead{Seq: tag}
		case 9:
			m = ABDReadAck{Seq: tag, C: c}
		case 10:
			m = Keyed{Key: key, Inner: Read{TSR: types.ReaderTS(tsr), Round: int(round)}}
		case 11:
			m = Batch{Msgs: []Message{
				Keyed{Key: key, Inner: W{Round: int(round), Tag: tag, C: c}},
				Keyed{Key: "second", Inner: Read{TSR: types.ReaderTS(tsr), Round: int(round)}},
			}}
		case 12:
			m = PW{TS: types.TS(ts), PW: c, W: c2, Spec: round%2 == 1} // nil frozen set
		case 13:
			m = PWNack{TS: types.TS(ts), Max: types.Stamp{Seq: types.TS(tag), Writer: types.WID(round % 7)}}
		}
		env := Envelope{From: types.WriterID(), To: types.ServerID(int(rdr) % 8), Msg: m}
		frame, err := AppendFrame(nil, env)
		if err != nil {
			return // structurally unencodable (cannot happen for these shapes, but harmless)
		}
		got, derr := DecodeFrame(bytes.NewReader(frame))
		valid := Validate(m) == nil
		if derr != nil {
			if valid {
				t.Fatalf("valid message failed to round trip: %v", derr)
			}
			if !errors.Is(derr, ErrMalformed) {
				t.Fatalf("invalid message rejected with wrong error class: %v", derr)
			}
			return
		}
		if !valid {
			t.Fatalf("DecodeFrame accepted a message Validate rejects: %+v", m)
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, env)
		}
	})
}
