package core

import (
	"sort"

	"luckystore/internal/types"
)

// Thresholds carries the witness counts the selection predicates use.
// Factoring them out of Config lets the Appendix C two-phase variant
// (with its larger server set S = 2t + b + min(b,fr) + 1) and the
// Appendix D regular variant reuse the same predicate machinery, and
// lets the upper-bound experiments run deliberately weakened thresholds
// to reproduce the violation runs of Figures 4 and 5.
type Thresholds struct {
	S         int // total servers
	Quorum    int // S − t: round quorum and invalid_w witness count
	Safe      int // b + 1: safe / safeFrozen witness count
	FastPW    int // 2b + t + 1: fast_pw witness count
	FastVW    int // b + 1: fast_vw witness count
	InvalidPW int // S − b − t: invalid_pw witness count
	// FastW is the w-field witness count of Appendix C's fast predicate,
	// S − t − fr (Fig. 7 line 5); zero leaves it unused.
	FastW int
}

// Thresholds returns the paper's thresholds for this configuration.
func (c Config) Thresholds() Thresholds {
	return Thresholds{
		S:         c.S(),
		Quorum:    c.Quorum(),
		Safe:      c.SafeThreshold(),
		FastPW:    c.FastPWThreshold(),
		FastVW:    c.SafeThreshold(),
		InvalidPW: c.S() - c.B - c.T,
	}
}

// View is a reader's accumulated picture of the servers during one READ
// operation: for every server that has responded at least once, the
// freshest pw, w, vw and frozen values reported (Fig. 2 lines 23–25).
//
// All predicates of Fig. 2 lines 1–10 are methods on View. They count
// only servers that actually responded: the pseudocode initializes the
// arrays to 〈ts0,⊥〉, but the correctness proofs (Lemmas 5 and 6,
// Theorem 2) count servers "that responded", and counting placeholders
// would let invalid_w/invalid_pw fire without evidence. See DESIGN.md.
//
// The view is flat and reusable: one slot per server, indexed by the
// server id's numeric index, with slot.round == 0 marking "has not
// responded" (correct servers only ever ack rounds ≥ 1). A reader keeps
// one View for its lifetime and calls Reset per READ — no maps, no
// per-operation allocation (DESIGN.md §5).
type View struct {
	th        Thresholds
	tsr       types.ReaderTS // current READ timestamp, for safeFrozen matching
	srv       []viewSlot     // indexed by server index; round == 0 means no ack yet
	responded int
}

// viewSlot is one server's freshest reported state.
type viewSlot struct {
	round  int // freshest ack round (rnd_i); 0 until the first valid ack
	pw     types.Tagged
	w      types.Tagged
	vw     types.Tagged
	frozen types.FrozenPair
}

// NewView creates an empty view for a READ with timestamp tsr.
func NewView(cfg Config, tsr types.ReaderTS) *View {
	return NewViewWithThresholds(cfg.Thresholds(), tsr)
}

// NewViewWithThresholds creates an empty view with explicit thresholds.
func NewViewWithThresholds(th Thresholds, tsr types.ReaderTS) *View {
	return &View{
		th:  th,
		tsr: tsr,
		srv: make([]viewSlot, th.S),
	}
}

// Reset clears the view for a new READ with timestamp tsr, reusing the
// slot array: the per-operation equivalent of NewViewWithThresholds
// without the allocation.
func (v *View) Reset(tsr types.ReaderTS) {
	v.tsr = tsr
	v.responded = 0
	clear(v.srv)
}

// Update ingests one READ_ACK from server si, keeping only the freshest
// round per server (Fig. 2 lines 23–25). It reports whether the ack was
// fresher than what the view already held. Acks claiming a round below
// 1, or an id outside the view's server set, are ignored.
func (v *View) Update(si types.ProcID, round int, pw, w, vw types.Tagged, frozen types.FrozenPair) bool {
	i := si.Index()
	if i < 0 || i >= len(v.srv) || !si.IsServer() {
		return false
	}
	s := &v.srv[i]
	if round <= s.round {
		return false
	}
	if s.round == 0 {
		v.responded++
	}
	s.round = round
	s.pw = pw
	s.w = w
	s.vw = vw
	s.frozen = frozen
	return true
}

// Responded returns the number of servers with at least one valid ack.
func (v *View) Responded() int { return v.responded }

// ReadLive reports readLive(c, i): server si's freshest pw or w equals
// c (Fig. 2 line 1).
func (v *View) ReadLive(c types.Tagged, si types.ProcID) bool {
	i := si.Index()
	if i < 0 || i >= len(v.srv) || v.srv[i].round == 0 {
		return false
	}
	return v.srv[i].pw == c || v.srv[i].w == c
}

// Safe reports safe(c): at least b+1 servers readLive(c) (Fig. 2
// line 3).
func (v *View) Safe(c types.Tagged) bool {
	n := 0
	for i := range v.srv {
		s := &v.srv[i]
		if s.round != 0 && (s.pw == c || s.w == c) {
			n++
		}
	}
	return n >= v.th.Safe
}

// SafeFrozen reports safeFrozen(c): at least b+1 servers report
// frozen_i.pw = c with frozen_i.tsr equal to this READ's timestamp
// (Fig. 2 lines 2 and 4).
func (v *View) SafeFrozen(c types.Tagged) bool {
	n := 0
	for i := range v.srv {
		s := &v.srv[i]
		if s.round != 0 && s.frozen.PW == c && s.frozen.TSR == v.tsr {
			n++
		}
	}
	return n >= v.th.Safe
}

// FastPW reports fast_pw(c): at least 2b+t+1 servers report pw_i = c
// (Fig. 2 line 5).
func (v *View) FastPW(c types.Tagged) bool {
	n := 0
	for i := range v.srv {
		if v.srv[i].round != 0 && v.srv[i].pw == c {
			n++
		}
	}
	return n >= v.th.FastPW
}

// FastVW reports fast_vw(c): at least b+1 servers report vw_i = c
// (Fig. 2 line 6).
func (v *View) FastVW(c types.Tagged) bool {
	n := 0
	for i := range v.srv {
		if v.srv[i].round != 0 && v.srv[i].vw == c {
			n++
		}
	}
	return n >= v.th.FastVW
}

// Fast reports fast(c) = fast_pw(c) ∨ fast_vw(c) (Fig. 2 line 7), or
// Appendix C's fast(c) ::= |{i : w_i = c}| ≥ S − t − fr (Fig. 7 line 5)
// when Thresholds.FastW is set.
func (v *View) Fast(c types.Tagged) bool { return v.FastPW(c) || v.FastVW(c) || v.fastW(c) }

// fastW reports Appendix C's fast(c): at least FastW servers report
// w_i = c. An unset FastW never fires.
func (v *View) fastW(c types.Tagged) bool {
	if v.th.FastW == 0 {
		return false
	}
	n := 0
	for i := range v.srv {
		if v.srv[i].round != 0 && v.srv[i].w == c {
			n++
		}
	}
	return n >= v.th.FastW
}

// InvalidW reports invalid_w(c): at least S−t servers responded with
// some readLive value older than c (Fig. 2 line 8).
func (v *View) InvalidW(c types.Tagged) bool {
	n := 0
	for i := range v.srv {
		s := &v.srv[i]
		if s.round != 0 && (s.pw.OlderThan(c) || s.w.OlderThan(c)) {
			n++
		}
	}
	return n >= v.th.Quorum
}

// InvalidPW reports invalid_pw(c): at least S−b−t servers responded
// with a pw value older than c (Fig. 2 line 9).
func (v *View) InvalidPW(c types.Tagged) bool {
	n := 0
	for i := range v.srv {
		if v.srv[i].round != 0 && v.srv[i].pw.OlderThan(c) {
			n++
		}
	}
	return n >= v.th.InvalidPW
}

// HighCand reports highCand(c): every readLive pair c′ ≠ c whose stamp
// is not below c's is both invalid_w and invalid_pw (Fig. 2 line 10,
// with the composite 〈seq, writer〉 stamp as the timestamp order).
func (v *View) HighCand(c types.Tagged) bool {
	for i := range v.srv {
		s := &v.srv[i]
		if s.round == 0 {
			continue
		}
		if !v.highCandAgainst(c, s.pw) || !v.highCandAgainst(c, s.w) {
			return false
		}
	}
	return true
}

// highCandAgainst checks the highCand condition for one competing live
// pair cp.
func (v *View) highCandAgainst(c, cp types.Tagged) bool {
	if cp == c || cp.Less(c) {
		return true
	}
	return v.InvalidW(cp) && v.InvalidPW(cp)
}

// isCandidate reports whether c is in the selection set C of Fig. 2
// line 18: (safe ∧ highCand) or safeFrozen.
func (v *View) isCandidate(c types.Tagged) bool {
	return (v.Safe(c) && v.HighCand(c)) || v.SafeFrozen(c)
}

// Candidates returns the selection set C of Fig. 2 line 18: every pair
// that is (safe ∧ highCand) or safeFrozen, sorted by stamp
// ascending for deterministic iteration. It allocates its result and is
// meant for tests and experiment assertions; the READ loop uses Select,
// which scans the view without allocating.
func (v *View) Candidates() []types.Tagged {
	seen := make(map[types.Tagged]bool)
	var out []types.Tagged
	consider := func(c types.Tagged) {
		if seen[c] {
			return
		}
		seen[c] = true
		if v.isCandidate(c) {
			out = append(out, c)
		}
	}
	for i := range v.srv {
		s := &v.srv[i]
		if s.round == 0 {
			continue
		}
		consider(s.pw)
		consider(s.w)
	}
	for i := range v.srv {
		s := &v.srv[i]
		if s.round != 0 && s.frozen.TSR == v.tsr {
			consider(s.frozen.PW)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if si, sj := out[i].Stamp(), out[j].Stamp(); si != sj {
			return si.Less(sj)
		}
		return out[i].Val < out[j].Val
	})
	return out
}

// Select returns the candidate with the highest stamp (Fig. 2 line 20,
// in the 〈seq, writer〉 order) and whether any candidate exists. It scans
// the slots directly — no candidate list, no map, no allocation —
// evaluating the predicates per distinct live/frozen pair;
// re-evaluating a pair reported by several servers is idempotent and
// cheaper than deduplicating. Ties on the full stamp (only producible
// by malicious processes) break toward the larger value, matching
// Candidates' sort order.
func (v *View) Select() (types.Tagged, bool) {
	var best types.Tagged
	found := false
	for i := range v.srv {
		s := &v.srv[i]
		if s.round == 0 {
			continue
		}
		best, found = v.selectBetter(best, found, s.pw)
		best, found = v.selectBetter(best, found, s.w)
		if s.frozen.TSR == v.tsr {
			best, found = v.selectBetter(best, found, s.frozen.PW)
		}
	}
	return best, found
}

// selectBetter folds one potential candidate into the running maximum.
func (v *View) selectBetter(best types.Tagged, found bool, c types.Tagged) (types.Tagged, bool) {
	if cs, bs := c.Stamp(), best.Stamp(); found && (cs.Less(bs) || (cs == bs && c.Val <= best.Val)) {
		return best, found // cannot improve; skip the predicate work
	}
	if v.isCandidate(c) {
		return c, true
	}
	return best, found
}
