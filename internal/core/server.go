package core

import (
	"sync"

	"luckystore/internal/node"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Server is the server automaton of Figure 3. It keeps three
// timestamp–value fields — pw (pre-written), w (written) and vw (the
// third write round's "view-written" field) — plus, per reader, the
// reader's last announced READ timestamp tsr_j and the frozen slot
// frozen_rj used by the freezing mechanism.
//
// It is the server of the whole Fig. 1–3 family. Appendix C's server
// (Fig. 8) is this one as its clients use it: no two-phase client sends
// a W round 3, so vw stays ⊥, and its writer's freeze arrives in a W
// message, which onW applies as onPW does. Appendix D's is
// NewRegularServer.
//
// The automaton is pure and single-threaded: StepAppend consumes one
// message and appends the replies to send. It never initiates
// communication (servers reply only to clients, per the paper's
// data-centric model).
//
// Memory discipline (DESIGN.md §5): the per-reader maps are nil until
// the first slow READ touches them. At millions-of-keys scale every KV
// key pins one Server per server process, and the overwhelmingly common
// key never sees a slow READ — so the idle per-key footprint is the
// bare struct, with no map headers or buckets. NewServer performs zero
// map allocations.
//
// The per-key state is bounded independently of the writer count (the
// space-bounds property, DESIGN.md §10): the automaton keeps exactly
// three tagged pairs plus the per-reader slots, and nothing per writer —
// a contending writer's identity lives only inside the stamps of the
// pairs themselves, so millions of writers cost a key nothing.
type Server struct {
	// mu guards all fields: the step pool serializes steps, but tests
	// and experiments inspect server state concurrently.
	mu        sync.Mutex
	pw, w, vw types.Tagged
	frozen    map[types.ProcID]types.FrozenPair // nil until the first freeze applies
	readerTS  map[types.ProcID]types.ReaderTS   // nil until the first slow READ round

	// newreadScratch accumulates onPW's newread set without per-entry
	// growth reallocations; the set is cloned into the PW_ACK (the ack
	// escapes into mailboxes and client round state, so the scratch
	// itself must never leave the automaton). Steady state — no
	// outstanding slow READs — appends nothing and allocates nothing.
	newreadScratch []types.ReadStamp

	// ignoreReaderWrites makes the automaton drop W messages from
	// readers: the regular variant of Appendix D, which tolerates
	// malicious readers by never letting a reader modify pw/w/vw.
	ignoreReaderWrites bool

	// sm is the process-wide server instrumentation, shared by every
	// per-key automaton of a server (SetMetrics); nil when the process
	// runs uninstrumented.
	sm *ServerMetrics
}

var (
	_ node.Automaton   = (*Server)(nil)
	_ node.NonBlocking = (*Server)(nil)
)

// NewServer creates a server in its initial state
// (pw = w = vw = 〈ts0,⊥〉, all frozen slots initial, all reader
// timestamps tsr0). The per-reader maps are allocated lazily on first
// use, so an idle register costs only the struct itself.
func NewServer() *Server {
	return &Server{
		pw: types.Bottom(),
		w:  types.Bottom(),
		vw: types.Bottom(),
	}
}

// NewRegularServer creates a server for the Appendix D regular variant,
// identical to NewServer except that W messages from readers (write
// backs) are ignored.
func NewRegularServer() *Server {
	s := NewServer()
	s.ignoreReaderWrites = true
	return s
}

// State returns a copy of the server's stored pairs, for tests and
// experiment assertions.
func (s *Server) State() (pw, w, vw types.Tagged) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pw, s.w, s.vw
}

// FrozenFor returns the server's frozen slot for a reader.
func (s *Server) FrozenFor(r types.ProcID) types.FrozenPair {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frozenLocked(r)
}

func (s *Server) frozenLocked(r types.ProcID) types.FrozenPair {
	if f, ok := s.frozen[r]; ok {
		return f
	}
	return types.InitialFrozen()
}

// ReaderTS returns the reader timestamp stored for r (tsr0 if none).
func (s *Server) ReaderTS(r types.ProcID) types.ReaderTS {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readerTS[r]
}

// StateSize reports how many per-reader slots the server currently
// holds (frozen pairs and reader timestamps). The register pairs are
// always exactly three; everything else the automaton stores is
// per-reader and nothing is per-writer, so these two counts are the
// whole space-bounds story — experiments assert they stay flat as
// writers are added.
func (s *Server) StateSize() (frozenSlots, readerSlots int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frozen), len(s.readerTS)
}

// InjectState force-sets the server's fields, bypassing the protocol.
// Only malicious servers can reach arbitrary states (Section 2.1); the
// fault package and the upper-bound experiments use this to forge the
// σ1 states of the proof runs.
func (s *Server) InjectState(pw, w, vw types.Tagged) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pw, s.w, s.vw = pw, w, vw
}

// StepNeverBlocks implements node.NonBlocking: a step computes on
// memory under the server's own lock, so a runner's pump or a
// connection's read goroutine may run it.
func (s *Server) StepNeverBlocks() bool { return true }

// StepAppend implements node.Automaton: replies are appended to out
// instead of allocated per message, so a driver with a reusable buffer
// steps the automaton without a single slice allocation. Messages that
// fail structural validation, or arrive from a process whose role may
// not send them, are dropped without a reply — a correct server never
// acts on garbage, and in the Byzantine model an unanswered message is
// indistinguishable from a slow channel.
func (s *Server) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	if wire.Validate(m) != nil {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch v := m.(type) {
	case wire.PW:
		if !from.IsWriter() {
			return out
		}
		return s.onPW(from, v, out)
	case wire.Read:
		// Readers query for READ; writers query round 1 only, for the
		// MWMR stamp discovery (a round-1 read leaves no trace in the
		// automaton, so a writer's query costs the server nothing).
		if !from.IsReader() && !(from.IsWriter() && v.Round == 1) {
			return out
		}
		return s.onRead(from, v, out)
	case wire.W:
		if !from.IsWriter() && !from.IsReader() {
			return out
		}
		if from.IsReader() && s.ignoreReaderWrites {
			return out
		}
		return s.onW(from, v, out)
	default:
		return out
	}
}

// onPW handles the pre-write message (Fig. 3 lines 3–8).
func (s *Server) onPW(from types.ProcID, m wire.PW, out []transport.Outgoing) []transport.Outgoing {
	// Writer-stamp rule for speculative pre-writes (DESIGN.md §12): a
	// spec PW whose pair is not strictly above the installed pre-write
	// is answered with PW_NACK and makes no state change — the writer
	// guessed its stamp from a cache and guessed low, so it must fall
	// back to the query round. Re-sending the
	// identical pair is exempt (answered with a normal ack) so a
	// retransmitted spec PW stays idempotent: the first copy already
	// installed the pair, and NACKing the second would abort a write
	// the servers in fact accepted.
	if m.Spec && !s.pw.Stamp().Less(m.PW.Stamp()) && s.pw != m.PW {
		s.sm.pwNack()
		return append(out, transport.Outgoing{To: from, Msg: wire.PWNack{TS: m.TS, Max: s.pw.Stamp()}})
	}
	s.sm.pw(m.Spec)
	s.update(&s.pw, m.PW)
	s.update(&s.w, m.W)
	s.freeze(m.Frozen)
	// newread: every reader whose announced READ timestamp the writer
	// has not yet frozen a value for (Fig. 3 line 7). Built in the
	// reusable scratch, then cloned: the ack is retained by the client
	// past this step, so it must not alias automaton-owned memory.
	scratch := s.newreadScratch[:0]
	for rj, tsr := range s.readerTS {
		if tsr > s.frozenTSR(rj) {
			scratch = append(scratch, types.ReadStamp{Reader: rj, TSR: tsr})
		}
	}
	s.newreadScratch = scratch
	var newread []types.ReadStamp
	if len(scratch) > 0 {
		newread = make([]types.ReadStamp, len(scratch))
		copy(newread, scratch)
	}
	// Max is the pw stamp after applying this PW: under writer
	// contention it exceeds the acknowledged write's own stamp, which is
	// how the writer observes the race.
	return append(out, transport.Outgoing{To: from, Msg: wire.PWAck{TS: m.TS, Max: s.pw.Stamp(), NewRead: newread}})
}

// onRead handles a READ round message (Fig. 3 lines 9–11). The reader
// timestamp is recorded only from the second round on (and only for
// readers — a writer's stamp query must not enter the freezing
// machinery): a fast READ leaves no trace, and only slow READs signal
// the writer via freezing.
func (s *Server) onRead(from types.ProcID, m wire.Read, out []transport.Outgoing) []transport.Outgoing {
	s.sm.read()
	if m.TSR > s.readerTS[from] && m.Round > 1 && from.IsReader() {
		if s.readerTS == nil {
			s.readerTS = make(map[types.ProcID]types.ReaderTS)
		}
		s.readerTS[from] = m.TSR
	}
	return append(out, transport.Outgoing{
		To: from,
		Msg: wire.ReadAck{
			TSR:    m.TSR,
			Round:  m.Round,
			PW:     s.pw,
			W:      s.w,
			VW:     s.vw,
			Frozen: s.frozenLocked(from),
		},
	})
}

// onW handles a write-phase or write-back message (Fig. 3 lines 12–16):
// round 1 updates pw, round 2 additionally w, round 3 additionally vw.
// A frozen set applies when the writer sends it (Fig. 8 lines 10–15:
// Appendix C's writer ships its freeze in its one W round); a reader's
// is ignored.
func (s *Server) onW(from types.ProcID, m wire.W, out []transport.Outgoing) []transport.Outgoing {
	s.sm.w()
	s.update(&s.pw, m.C)
	if m.Round > 1 {
		s.update(&s.w, m.C)
	}
	if m.Round > 2 {
		s.update(&s.vw, m.C)
	}
	if from.IsWriter() {
		s.freeze(m.Frozen)
	}
	return append(out, transport.Outgoing{To: from, Msg: wire.WAck{Round: m.Round, Tag: m.Tag}})
}

// freeze applies a writer's frozen set even when the pairs its message
// carries are older than the local copies (Fig. 3 lines 5–6): the
// freeze for a reader takes effect when its read timestamp is at least
// the one the server stored.
func (s *Server) freeze(frozen []types.FrozenEntry) {
	for _, f := range frozen {
		if f.TSR >= s.readerTS[f.Reader] {
			if s.frozen == nil {
				s.frozen = make(map[types.ProcID]types.FrozenPair)
			}
			s.frozen[f.Reader] = types.FrozenPair{PW: f.PW, TSR: f.TSR}
		}
	}
}

// update replaces *local with c only if c is strictly newer in the
// stamp order 〈seq, writer〉 (Fig. 3 line 17), preserving Lemma 3
// (non-decreasing stamps). The writer tie-break is what lets two
// writers' concurrent same-seq pairs converge to one winner on every
// correct server.
func (s *Server) update(local *types.Tagged, c types.Tagged) {
	if local.Less(c) {
		*local = c
	}
}

func (s *Server) frozenTSR(rj types.ProcID) types.ReaderTS {
	if f, ok := s.frozen[rj]; ok {
		return f.TSR
	}
	return types.ReaderTS0
}
