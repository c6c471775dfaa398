package wire

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"luckystore/internal/types"
)

// benchEnvelopes are the workload shapes for the codec benchmarks:
// read is the fixed-size control message, readack the hot data-carrying
// ack, pw_frozen a write-path message with a small frozen set, and
// batch32 a coalesced 32-key round — the shape PRs 1–2 put on the wire.
func benchEnvelopes() []struct {
	name string
	env  Envelope
} {
	batch := Batch{Msgs: make([]Message, 32)}
	for i := range batch.Msgs {
		batch.Msgs[i] = Keyed{
			Key:   fmt.Sprintf("key-%02d", i),
			Inner: W{Round: 2, Tag: int64(i), C: types.Tagged{TS: types.TS(i + 1), Val: "payload-value"}},
		}
	}
	return []struct {
		name string
		env  Envelope
	}{
		{"read", Envelope{From: "r0", To: "s1", Msg: Read{TSR: 7, Round: 1}}},
		{"readack", Envelope{From: "s3", To: "r0", Msg: ReadAck{
			TSR: 7, Round: 1,
			PW: types.Tagged{TS: 9, Val: "payload-value"},
			W:  types.Tagged{TS: 8, Val: "older-value"},
			VW: types.Tagged{TS: 7, Val: "oldest"},
		}}},
		{"pw_frozen", Envelope{From: "w", To: "s0", Msg: PW{
			TS: 42, PW: types.Tagged{TS: 42, Val: "new-value"}, W: types.Tagged{TS: 41, Val: "old-value"},
			Frozen: []types.FrozenEntry{
				{Reader: types.ReaderID(0), PW: types.Tagged{TS: 41, Val: "old-value"}, TSR: 3},
				{Reader: types.ReaderID(1), PW: types.Tagged{TS: 41, Val: "old-value"}, TSR: 5},
			},
		}}},
		{"batch32", Envelope{From: "w", To: "s0", Msg: batch}},
	}
}

// BenchmarkEncodeFrame measures the binary codec's encode path.
func BenchmarkEncodeFrame(b *testing.B) {
	for _, tc := range benchEnvelopes() {
		b.Run(tc.name, func(b *testing.B) {
			frame, err := AppendFrame(nil, tc.env)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := EncodeFrame(io.Discard, tc.env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeFrame measures the binary codec's decode path
// (including structural validation, as on the live read loop).
func BenchmarkDecodeFrame(b *testing.B) {
	for _, tc := range benchEnvelopes() {
		b.Run(tc.name, func(b *testing.B) {
			frame, err := AppendFrame(nil, tc.env)
			if err != nil {
				b.Fatal(err)
			}
			r := bytes.NewReader(frame)
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(frame)
				if _, err := DecodeFrame(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendCoalesced measures the direct batch-encode path the
// Coalescer hands to tcpnet (one 32-key run into one frame) against
// the generic CoalesceKeyed + EncodeFrame walk it replaced.
func BenchmarkAppendCoalesced(b *testing.B) {
	msgs := make([]Message, 32)
	for i := range msgs {
		msgs[i] = Keyed{
			Key:   fmt.Sprintf("key-%02d", i),
			Inner: W{Round: 2, Tag: int64(i), C: types.Tagged{TS: types.TS(i + 1), Val: "payload-value"}},
		}
	}
	b.Run("direct", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = AppendCoalesced(buf[:0], "w", "s0", msgs)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, m := range CoalesceKeyed(msgs) {
				if err := EncodeFrame(io.Discard, Envelope{From: "w", To: "s0", Msg: m}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
