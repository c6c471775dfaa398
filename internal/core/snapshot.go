package core

import (
	"sort"

	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// snapshotFrozenChunk bounds the frozen entries carried by one
// synthetic PW, comfortably inside the wire codec's frozen-set cap.
const snapshotFrozenChunk = 4096

// SnapshotRecords emits the server's state as a bounded sequence of
// synthetic protocol messages: replaying them into a fresh automaton
// reproduces pw/w/vw, every frozen slot and every reader timestamp
// exactly (storage.Snapshotter). Using ordinary messages keeps
// recovery on the automaton's only state-mutation path — a snapshot
// cannot express a state the protocol itself cannot reach.
//
// Shape: pw and w ride one PW from the writer identity, which sets
// each independently (a W round would raise pw to its pair), with the
// first chunk of frozen slots; a further chunk repeats pw and w. A
// register with pw = w = ⊥ and no frozen slots emits no PW. vw
// follows as one W round 3, which raises pw and w only to vw — never
// above them, since vw ≤ min(pw, w) always holds (only round 3 raises
// vw, and it raises all three). Both are accepted by the standard and
// the regular variant, and merges are monotone max-merges. Frozen
// slots are emitted before the reader timestamps: at replay time
// every readerTS is still tsr0, so the freezing guard
// (tsr >= readerTS[r]) accepts each stored pair verbatim; the READs
// that restore the timestamps come last.
//
// The emission is bounded by live state — three pairs plus the
// per-reader slots, nothing per writer and nothing per historical
// write — which is what keeps the compacted log within the
// space-bounds yardstick (DESIGN.md §11).
func (s *Server) SnapshotRecords(emit func(from types.ProcID, m wire.Message) error) error {
	s.mu.Lock()
	pw, w, vw := s.pw, s.w, s.vw
	frozen := make([]types.FrozenEntry, 0, len(s.frozen))
	for r, fp := range s.frozen {
		frozen = append(frozen, types.FrozenEntry{Reader: r, PW: fp.PW, TSR: fp.TSR})
	}
	readers := make([]types.ReadStamp, 0, len(s.readerTS))
	for r, tsr := range s.readerTS {
		readers = append(readers, types.ReadStamp{Reader: r, TSR: tsr})
	}
	s.mu.Unlock()
	sort.Slice(frozen, func(i, j int) bool { return frozen[i].Reader < frozen[j].Reader })
	sort.Slice(readers, func(i, j int) bool { return readers[i].Reader < readers[j].Reader })

	from := types.WriterID()
	for len(frozen) > 0 || !pw.IsBottom() || !w.IsBottom() {
		chunk := frozen[:min(len(frozen), snapshotFrozenChunk)]
		frozen = frozen[len(chunk):]
		if err := emit(from, wire.PW{TS: 1, PW: pw, W: w, Frozen: chunk}); err != nil {
			return err
		}
		if len(frozen) == 0 {
			break
		}
	}
	if !vw.IsBottom() {
		if err := emit(from, wire.W{Round: 3, Tag: int64(vw.TS), C: vw}); err != nil {
			return err
		}
	}
	for _, rs := range readers {
		if err := emit(rs.Reader, wire.Read{TSR: rs.TSR, Round: 2}); err != nil {
			return err
		}
	}
	return nil
}
