package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"luckystore/internal/types"
)

// DecodeFrame must never panic and must return an error (or io.EOF) on
// arbitrary byte streams — a Byzantine peer controls every byte after
// the TCP handshake.
func TestDecodeFrameNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(raw []byte) bool {
		_, err := DecodeFrame(bytes.NewReader(raw))
		// Any outcome but a panic is acceptable; an empty stream is
		// io.EOF, everything else must error (raw random bytes cannot
		// be a valid envelope of meaningful size).
		return err != nil || len(raw) > 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Flipping any single byte of a valid frame must not produce a decoded
// envelope that panics downstream; it either still decodes to a
// Validate-checked message or errors.
func TestDecodeFrameBitFlips(t *testing.T) {
	env := Envelope{
		From: types.ServerID(2), To: types.ReaderID(0),
		Msg: ReadAck{TSR: 5, Round: 2,
			PW: types.Tagged{TS: 9, Val: "value-nine"},
			W:  types.Tagged{TS: 8, Val: "value-eight"},
			VW: types.Tagged{TS: 7, Val: "value-seven"},
		},
	}
	var buf bytes.Buffer
	if err := EncodeFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		corrupted := make([]byte, len(valid))
		copy(corrupted, valid)
		i := rng.Intn(len(corrupted))
		corrupted[i] ^= byte(1 << rng.Intn(8))
		got, err := DecodeFrame(bytes.NewReader(corrupted))
		if err != nil {
			continue
		}
		// If it decoded, the message must satisfy Validate (DecodeFrame
		// guarantees this contract).
		if verr := Validate(got.Msg); verr != nil {
			t.Fatalf("flip at byte %d: decoded envelope fails Validate: %v", i, verr)
		}
	}
}

// A frame header promising more bytes than the stream holds must error
// without blocking or huge allocation.
func TestDecodeFrameShortStreamPerHeader(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1024)
	buf.Write(hdr[:])
	buf.WriteString("only a few bytes")
	if _, err := DecodeFrame(&buf); err == nil {
		t.Fatal("short stream decoded")
	}
}

// Concatenated valid frames followed by garbage decode up to the
// garbage and then error.
func TestDecodeFrameStopsAtGarbage(t *testing.T) {
	var buf bytes.Buffer
	for i := 1; i <= 3; i++ {
		env := Envelope{From: types.WriterID(), To: types.ServerID(0),
			Msg: Read{TSR: types.ReaderTS(i), Round: 1}}
		if err := EncodeFrame(&buf, env); err != nil {
			t.Fatal(err)
		}
	}
	buf.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02})
	for i := 1; i <= 3; i++ {
		env, err := DecodeFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := env.Msg.(Read).TSR; got != types.ReaderTS(i) {
			t.Fatalf("frame %d out of order: %d", i, got)
		}
	}
	if _, err := DecodeFrame(&buf); err == nil || err == io.EOF {
		t.Fatalf("garbage tail: err = %v, want decode error", err)
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one
// call of f allocates, averaged over runs calls after a warm-up call.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// A batch frame of the largest size a peer may send, valid for one
// entry and junk from there on — or junk from the first entry on — is
// refused as malformed having allocated for the entries it decoded, not
// for the entries its sixteen megabytes could have held.
func TestBatchDecodeOfJunkAllocatesByEntriesNotBytes(t *testing.T) {
	entry := Keyed{Key: "k", Inner: Read{TSR: 1, Round: 1}}
	head, err := AppendEnvelope(nil, Envelope{From: types.WriterID(), To: types.ServerID(0), Msg: Batch{Msgs: []Message{entry}}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := AppendMessage(nil, entry)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		valid int // leading bytes of head that are kept
		junk  byte
	}{
		{"garbage after the first entry", len(head), 0xff},
		{"one-byte junk from the first entry on", len(head) - len(first), 0x01},
	} {
		body := bytes.Repeat([]byte{tc.junk}, maxFrameSize-1)
		copy(body, head[:tc.valid])
		var derr error
		got := allocBytesPerRun(3, func() { _, derr = DecodeEnvelope(body) })
		if !errors.Is(derr, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", tc.name, derr)
		}
		// The first allocation of Msgs, one entry, the error: well under
		// a kilobyte each. Sized from the bytes, Msgs alone is a megabyte.
		if got > 4<<10 {
			t.Errorf("%s: decoding %d bytes of junk allocated %d B", tc.name, len(body), got)
		}
	}
}
