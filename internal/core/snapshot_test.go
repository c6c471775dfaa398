package core

import (
	"testing"

	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// TestSnapshotRecordsRoundTrip pins the snapshot contract: replaying
// the emitted records into a fresh automaton reproduces the full
// state — pairs, frozen slots and reader timestamps — for both the
// standard and the regular variant.
func TestSnapshotRecordsRoundTrip(t *testing.T) {
	w := types.WriterID()
	r0, r1 := types.ReaderID(0), types.ReaderID(1)
	pair := func(seq int, wid int, val string) types.Tagged {
		return types.Tagged{TS: types.TS(seq), W: types.WID(wid), Val: types.Value(val)}
	}
	type step struct {
		from types.ProcID
		m    wire.Message
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"mixed", []step{
			{w, wire.PW{TS: 1, PW: pair(3, 1, "c"), W: pair(2, 0, "b")}},
			{w, wire.W{Round: 3, Tag: 1, C: pair(1, 0, "a")}},
			{r0, wire.Read{TSR: 4, Round: 2}},
			{r1, wire.Read{TSR: 7, Round: 3}},
			{w, wire.PW{TS: 2, PW: pair(4, 0, "d"), W: pair(3, 1, "c"),
				Frozen: []types.FrozenEntry{
					{Reader: r0, PW: pair(3, 1, "c"), TSR: 4},
					{Reader: r1, PW: pair(2, 0, "b"), TSR: 7},
				}}},
		}},
		// A PW may carry a w above its pw, leaving pw below w; the
		// snapshot must not raise pw to w on replay.
		{"w above pw", []step{
			{w, wire.PW{TS: 1, PW: types.Bottom(), W: pair(1, 0, "a")}},
		}},
	}
	for _, variant := range []struct {
		name string
		mk   func() *Server
	}{
		{"standard", NewServer},
		{"regular", NewRegularServer},
	} {
		t.Run(variant.name, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					s := variant.mk()
					for _, st := range tc.steps {
						s.StepAppend(st.from, st.m, nil)
					}

					got := variant.mk()
					if err := s.SnapshotRecords(func(from types.ProcID, m wire.Message) error {
						if err := wire.Validate(m); err != nil {
							t.Fatalf("snapshot emitted invalid message %+v: %v", m, err)
						}
						got.StepAppend(from, m, nil)
						return nil
					}); err != nil {
						t.Fatalf("SnapshotRecords: %v", err)
					}

					wantPW, wantW, wantVW := s.State()
					gotPW, gotW, gotVW := got.State()
					if wantPW != gotPW || wantW != gotW || wantVW != gotVW {
						t.Fatalf("pairs mismatch: want (%v,%v,%v) got (%v,%v,%v)",
							wantPW, wantW, wantVW, gotPW, gotW, gotVW)
					}
					for _, r := range []types.ProcID{r0, r1} {
						if s.FrozenFor(r) != got.FrozenFor(r) {
							t.Fatalf("frozen[%s]: want %+v got %+v", r, s.FrozenFor(r), got.FrozenFor(r))
						}
						if s.ReaderTS(r) != got.ReaderTS(r) {
							t.Fatalf("readerTS[%s]: want %v got %v", r, s.ReaderTS(r), got.ReaderTS(r))
						}
					}
					// Replaying the snapshot a second time must be a no-op
					// (idempotency is what makes compaction crash windows safe).
					if err := s.SnapshotRecords(func(from types.ProcID, m wire.Message) error {
						got.StepAppend(from, m, nil)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					gotPW2, gotW2, gotVW2 := got.State()
					if gotPW2 != gotPW || gotW2 != gotW || gotVW2 != gotVW {
						t.Fatalf("second replay changed state")
					}
				})
			}
		})
	}
}

// TestSnapshotEmptyServer pins that a fresh server emits nothing: an
// empty register costs zero snapshot bytes.
func TestSnapshotEmptyServer(t *testing.T) {
	n := 0
	if err := NewServer().SnapshotRecords(func(types.ProcID, wire.Message) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("fresh server emitted %d records, want 0", n)
	}
}
