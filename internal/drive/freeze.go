package drive

import (
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Freezer is a writer's freezevalues() (Fig. 1 lines 13–15, and the
// same rule in the variants' writers): the per-reader record of frozen
// READ timestamps, and the scratch that tallies a pre-write round's
// NewRead reports. The zero Freezer is empty and allocates nothing
// until some server reports a slow READ.
type Freezer struct {
	// ReadTS is the writer's read_ts: the READ timestamp it last froze
	// a value for, per reader; nil until the first freeze.
	ReadTS map[types.ProcID]types.ReaderTS

	reported map[types.ProcID][]types.ReaderTS
	dupSeen  map[types.ProcID]bool
}

// smallNewReadSet is the size up to which duplicate detection scans the
// prefix linearly; correct servers report at most one stamp per reader
// with an outstanding slow READ, so real sets are tiny.
const smallNewReadSet = 8

// Freeze appends to frozen, and returns, a frozen entry of pw for every
// reader that at least b+1 of the PW_ACKs r counted (acks[i] for server
// i) report with a READ timestamp above ReadTS, at the (b+1)-st highest
// reported timestamp, which ReadTS then records.
//
// The steady state — no slow READ in progress anywhere, so every NewRead
// set is empty — is detected with one scan and skips the tallying
// entirely. Otherwise the scratch maps are reused across operations, and
// a reader a server repeats counts once.
func (f *Freezer) Freeze(r *Round, acks []wire.PWAck, b int, pw types.Tagged, frozen []types.FrozenEntry) []types.FrozenEntry {
	any := false
	for i := range acks {
		if r.Acked(i) && len(acks[i].NewRead) > 0 {
			any = true
			break
		}
	}
	if !any {
		return frozen
	}
	if f.reported == nil {
		f.reported = make(map[types.ProcID][]types.ReaderTS)
	} else {
		clear(f.reported)
	}
	for i := range acks {
		if !r.Acked(i) {
			continue
		}
		newread := acks[i].NewRead
		for j, rs := range newread {
			if f.duplicate(newread, j) {
				continue // a malicious server may repeat a reader; count it once
			}
			if rs.TSR > f.ReadTS[rs.Reader] {
				f.reported[rs.Reader] = append(f.reported[rs.Reader], rs.TSR)
			}
		}
	}
	for rj, tsrs := range f.reported {
		if len(tsrs) < b+1 {
			continue
		}
		nth, ok := types.NthHighest(tsrs, b)
		if !ok {
			continue
		}
		if f.ReadTS == nil {
			f.ReadTS = make(map[types.ProcID]types.ReaderTS)
		}
		f.ReadTS[rj] = nth
		frozen = append(frozen, types.FrozenEntry{Reader: rj, PW: pw, TSR: nth})
	}
	return frozen
}

// duplicate reports whether newread[j] repeats an earlier entry's
// reader. Large (necessarily forged) sets switch to the reusable map so
// a Byzantine server cannot force a quadratic scan.
func (f *Freezer) duplicate(newread []types.ReadStamp, j int) bool {
	rj := newread[j].Reader
	if len(newread) <= smallNewReadSet {
		for _, prev := range newread[:j] {
			if prev.Reader == rj {
				return true
			}
		}
		return false
	}
	if j == 0 {
		if f.dupSeen == nil {
			f.dupSeen = make(map[types.ProcID]bool, len(newread))
		} else {
			clear(f.dupSeen)
		}
	}
	if f.dupSeen[rj] {
		return true
	}
	f.dupSeen[rj] = true
	return false
}
