//go:build !race

package wire

import (
	"bytes"
	"io"
	"testing"
	"unsafe"
)

// TestCodecSteadyStateAllocs pins the allocation contract of the hot
// path: encoding frames allocates nothing in steady state (pooled
// scratch buffer, single Write), and decoding a fixed-size message
// allocates only the unavoidable Message interface boxing. Payload-
// carrying messages additionally pay exactly one string per distinct
// value — memory the caller must own — which the readack case bounds.
// Excluded under -race, whose instrumentation inflates counts.
func TestCodecSteadyStateAllocs(t *testing.T) {
	for _, tc := range benchEnvelopes() {
		frame, err := AppendFrame(nil, tc.env)
		if err != nil {
			t.Fatal(err)
		}
		encAllocs := testing.AllocsPerRun(500, func() {
			if err := EncodeFrame(io.Discard, tc.env); err != nil {
				t.Fatal(err)
			}
		})
		if encAllocs > 0.5 {
			t.Errorf("EncodeFrame(%s): %.1f allocs/op, want 0 steady-state", tc.name, encAllocs)
		}
		r := bytes.NewReader(frame)
		decAllocs := testing.AllocsPerRun(500, func() {
			r.Reset(frame)
			if _, err := DecodeFrame(r); err != nil {
				t.Fatal(err)
			}
		})
		// Boxing + one string/slice per variable-size field carried by
		// the message (batch32: 32 keyed boxes + 32 inner boxes + 32
		// keys + 32 values + the Msgs slice + the Batch box).
		budget := map[string]float64{"read": 1, "readack": 4, "pw_frozen": 6, "batch32": 130}[tc.name]
		if decAllocs > budget+0.5 {
			t.Errorf("DecodeFrame(%s): %.1f allocs/op, budget %.0f", tc.name, decAllocs, budget)
		}
	}
}

// TestBatchDecodeAllocBytes is the byte contract beside the count
// contract above, which a single oversized object slips through:
// decoding a frame of 32 keyed entries allocates what decoding the
// entries one frame each allocates, plus the Msgs slice at exactly 32
// entries and the Batch box — not a slice sized from the frame's bytes.
func TestBatchDecodeAllocBytes(t *testing.T) {
	var batch Envelope
	for _, tc := range benchEnvelopes() {
		if tc.name == "batch32" {
			batch = tc.env
		}
	}
	entries := batch.Msg.(Batch).Msgs
	whole, err := AppendFrame(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	var apart []byte
	for _, m := range entries {
		if apart, err = AppendFrame(apart, Envelope{From: batch.From, To: batch.To, Msg: m}); err != nil {
			t.Fatal(err)
		}
	}
	decodeAll := func(stream []byte, frames int) func() {
		r := bytes.NewReader(stream)
		return func() {
			r.Reset(stream)
			for i := 0; i < frames; i++ {
				if _, err := DecodeFrame(r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	got := allocBytesPerRun(200, decodeAll(whole, 1))
	perEntry := allocBytesPerRun(200, decodeAll(apart, len(entries)))
	slice := uint64(len(entries)) * uint64(unsafe.Sizeof(Message(nil)))
	box := uint64(unsafe.Sizeof(Batch{})) + 8 // rounded up to its size class
	t.Logf("batch32 frame (%d B): %d B allocated; its entries alone %d B, Msgs %d B", len(whole), got, perEntry, slice)
	if got > perEntry+slice+box {
		t.Errorf("decoding a 32-entry batch allocates %d B, want at most entries %d + slice %d + box %d", got, perEntry, slice, box)
	}
}
