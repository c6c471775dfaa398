// Package wire defines every message exchanged between clients and
// servers, for the core protocol (Figures 1–3 of the paper), the
// two-phase variant (Figures 6–8), the regular variant (Appendix D) and
// the ABD baseline. It also provides structural validation — essential
// in a Byzantine setting, where a malicious server may send arbitrarily
// malformed payloads — and the binary codec used by the TCP transport
// and the write-ahead log (binary.go, codec.go). It reads and writes
// one format, version 3; DESIGN.md §4 specifies it.
//
// Servers in the paper never talk to each other and never send
// unsolicited messages; every message below therefore flows either
// client→server (request) or server→client (acknowledgement).
package wire

import (
	"errors"
	"fmt"

	"luckystore/internal/types"
)

// Kind discriminates message types on the wire and in dispatch tables.
type Kind int

// Message kinds. Values start at 1 so a zero Kind marks an invalid or
// forged payload.
const (
	KindPW Kind = iota + 1
	KindPWAck
	KindW
	KindWAck
	KindRead
	KindReadAck
	KindABDWrite
	KindABDWriteAck
	KindABDRead
	KindABDReadAck
	KindKeyed
	KindBatch
	KindPWNack
)

func (k Kind) String() string {
	switch k {
	case KindPW:
		return "PW"
	case KindPWAck:
		return "PW_ACK"
	case KindW:
		return "W"
	case KindWAck:
		return "WRITE_ACK"
	case KindRead:
		return "READ"
	case KindReadAck:
		return "READ_ACK"
	case KindABDWrite:
		return "ABD_WRITE"
	case KindABDWriteAck:
		return "ABD_WRITE_ACK"
	case KindABDRead:
		return "ABD_READ"
	case KindABDReadAck:
		return "ABD_READ_ACK"
	case KindKeyed:
		return "KEYED"
	case KindBatch:
		return "BATCH"
	case KindPWNack:
		return "PW_NACK"
	default:
		return fmt.Sprintf("invalid-kind(%d)", int(k))
	}
}

// Message is implemented by every protocol message.
type Message interface {
	Kind() Kind
}

// ErrMalformed is wrapped by every validation failure so callers can
// recognize (and discard) Byzantine garbage with errors.Is.
var ErrMalformed = errors.New("malformed message")

// PW is the pre-write message of WRITE (Fig. 1 line 4):
// PW〈ts, pw, w, frozen〉. The Frozen set carries values frozen for slow
// READs detected during the previous WRITE.
//
// Spec marks a speculative multi-writer pre-write: the writer skipped
// the stamp-query round and chose the stamp from its cache. Servers
// apply the writer-stamp rule to speculative PWs only — a Spec PW
// whose stamp is not strictly above the server's installed pw is
// answered with PW_NACK and makes no state change — so a stale cache
// is caught server-side instead of trusted.
type PW struct {
	TS     types.TS
	PW     types.Tagged
	W      types.Tagged
	Frozen []types.FrozenEntry
	Spec   bool
}

// Kind implements Message.
func (PW) Kind() Kind { return KindPW }

// PWAck is the server reply to PW (Fig. 3 line 8):
// PW_ACK〈ts, newread〉. NewRead reports readers whose slow READs the
// writer has not yet frozen a value for.
//
// Max is the stamp of the server's pw field after applying the PW —
// under writer contention it can exceed the acknowledged write's own
// stamp, which is how a writer observes that it raced another writer.
type PWAck struct {
	TS      types.TS
	Max     types.Stamp
	NewRead []types.ReadStamp
}

// Kind implements Message.
func (PWAck) Kind() Kind { return KindPWAck }

// PWNack is the server's rejection of a speculative PW: the
// pre-write's stamp was not strictly above the server's installed pw
// stamp, so the server made no state change. Max carries the installed
// stamp, which the writer folds into its cache before falling back to
// the full query-round slow path. Only Spec PWs are ever NACKed — the
// non-speculative pre-write keeps its unconditional max-merge ACK.
type PWNack struct {
	TS  types.TS
	Max types.Stamp
}

// Kind implements Message.
func (PWNack) Kind() Kind { return KindPWNack }

// W is the write-phase message W〈round, tag, c〉 (Fig. 1 line 10), also
// used by the reader's write-back (Fig. 2 line 27, where the tag is the
// reader timestamp). In the two-phase variant the writer's W message
// additionally carries the frozen set (Fig. 6 line 9).
type W struct {
	Round  int
	Tag    int64 // writer: ts of the WRITE; reader write-back: tsr of the READ
	C      types.Tagged
	Frozen []types.FrozenEntry // two-phase variant only; empty otherwise
}

// Kind implements Message.
func (W) Kind() Kind { return KindW }

// WAck is the server reply WRITE_ACK〈round, tag〉 to a W message
// (Fig. 3 line 16).
type WAck struct {
	Round int
	Tag   int64
}

// Kind implements Message.
func (WAck) Kind() Kind { return KindWAck }

// Read is the reader's round message READ〈tsr, rnd〉 (Fig. 2 line 16).
type Read struct {
	TSR   types.ReaderTS
	Round int
}

// Kind implements Message.
func (Read) Kind() Kind { return KindRead }

// ReadAck is the server reply
// READ_ACK〈tsr, rnd, pw, w, vw, frozen_j〉 (Fig. 3 line 11).
type ReadAck struct {
	TSR    types.ReaderTS
	Round  int
	PW     types.Tagged
	W      types.Tagged
	VW     types.Tagged
	Frozen types.FrozenPair
}

// Kind implements Message.
func (ReadAck) Kind() Kind { return KindReadAck }

// ABDWrite carries a timestamped value in the ABD baseline; it is used
// both by the writer's single phase and by the reader's write-back
// phase.
type ABDWrite struct {
	Seq int64 // client-local operation tag used to match acknowledgements
	C   types.Tagged
}

// Kind implements Message.
func (ABDWrite) Kind() Kind { return KindABDWrite }

// ABDWriteAck acknowledges an ABDWrite.
type ABDWriteAck struct {
	Seq int64
}

// Kind implements Message.
func (ABDWriteAck) Kind() Kind { return KindABDWriteAck }

// ABDRead queries a server's current pair in the ABD baseline.
type ABDRead struct {
	Seq int64
}

// Kind implements Message.
func (ABDRead) Kind() Kind { return KindABDRead }

// ABDReadAck returns a server's current pair in the ABD baseline.
type ABDReadAck struct {
	Seq int64
	C   types.Tagged
}

// Kind implements Message.
func (ABDReadAck) Kind() Kind { return KindABDReadAck }

// MaxKeyLen bounds register names in Keyed envelopes.
const MaxKeyLen = 255

// Keyed wraps any protocol message with a register name, multiplexing
// many independent registers over one server set (internal/keyed).
type Keyed struct {
	Key   string
	Inner Message
}

// Kind implements Message.
func (Keyed) Kind() Kind { return KindKeyed }

// MaxBatchEntries bounds the number of messages one Batch may carry; a
// correct sender coalesces what accumulated during one in-flight flush,
// which is bounded by the number of concurrent per-key operations, so an
// enormous batch is necessarily forged.
const MaxBatchEntries = 1 << 16

// Batch carries several Keyed messages for the same destination in one
// frame, amortizing per-message network cost under concurrent multi-key
// traffic. Transports unwrap batches at the endpoint boundary (simnet on
// delivery, tcpnet on decode), so automata and demultiplexers only ever
// see the inner Keyed messages.
type Batch struct {
	Msgs []Message
}

// Kind implements Message.
func (Batch) Kind() Kind { return KindBatch }

// maxFrozenEntries bounds the frozen set a client accepts in one
// message; a correct writer freezes at most one value per reader, so a
// larger set is necessarily forged.
const maxFrozenEntries = 1 << 16

// Validate checks structural well-formedness of a message. It rejects
// payloads no correct process would send: a non-⊥ value tagged with
// ts0, out-of-range round numbers, invalid process ids inside frozen or
// newread sets, and nil messages. Byzantine-*valued* (but well-formed)
// lies are deliberately accepted — defeating those is the protocol's
// job, not the codec's.
func Validate(m Message) error {
	switch v := m.(type) {
	case PW:
		if err := validTagged(v.PW); err != nil {
			return fmt.Errorf("PW.pw: %w", err)
		}
		if err := validTagged(v.W); err != nil {
			return fmt.Errorf("PW.w: %w", err)
		}
		if v.TS <= types.TS0 {
			return fmt.Errorf("%w: PW.ts %d not positive", ErrMalformed, v.TS)
		}
		return validFrozenSet(v.Frozen)
	case PWAck:
		if v.TS <= types.TS0 {
			return fmt.Errorf("%w: PW_ACK.ts %d not positive", ErrMalformed, v.TS)
		}
		if v.Max.Seq < types.TS0 || v.Max.Writer < 0 {
			return fmt.Errorf("%w: PW_ACK.max stamp %v negative", ErrMalformed, v.Max)
		}
		if len(v.NewRead) > maxFrozenEntries {
			return fmt.Errorf("%w: newread set too large (%d)", ErrMalformed, len(v.NewRead))
		}
		for _, rs := range v.NewRead {
			if !rs.Reader.IsReader() {
				return fmt.Errorf("%w: newread entry for non-reader %q", ErrMalformed, rs.Reader)
			}
		}
		return nil
	case PWNack:
		if v.TS <= types.TS0 {
			return fmt.Errorf("%w: PW_NACK.ts %d not positive", ErrMalformed, v.TS)
		}
		if v.Max.Seq < types.TS0 || v.Max.Writer < 0 {
			return fmt.Errorf("%w: PW_NACK.max stamp %v negative", ErrMalformed, v.Max)
		}
		return nil
	case W:
		if v.Round < 1 || v.Round > 3 {
			return fmt.Errorf("%w: W.round %d out of range", ErrMalformed, v.Round)
		}
		if err := validTagged(v.C); err != nil {
			return fmt.Errorf("W.c: %w", err)
		}
		return validFrozenSet(v.Frozen)
	case WAck:
		if v.Round < 1 || v.Round > 3 {
			return fmt.Errorf("%w: WRITE_ACK.round %d out of range", ErrMalformed, v.Round)
		}
		return nil
	case Read:
		if v.Round < 1 {
			return fmt.Errorf("%w: READ.round %d not positive", ErrMalformed, v.Round)
		}
		if v.TSR <= types.ReaderTS0 {
			return fmt.Errorf("%w: READ.tsr %d not positive", ErrMalformed, v.TSR)
		}
		return nil
	case ReadAck:
		if v.Round < 1 {
			return fmt.Errorf("%w: READ_ACK.round %d not positive", ErrMalformed, v.Round)
		}
		// Checked field by field — READ_ACK is the hottest ack on the
		// wire, and a map literal here costs an allocation per call.
		if err := validTagged(v.PW); err != nil {
			return fmt.Errorf("READ_ACK.pw: %w", err)
		}
		if err := validTagged(v.W); err != nil {
			return fmt.Errorf("READ_ACK.w: %w", err)
		}
		if err := validTagged(v.VW); err != nil {
			return fmt.Errorf("READ_ACK.vw: %w", err)
		}
		if err := validTagged(v.Frozen.PW); err != nil {
			return fmt.Errorf("READ_ACK.frozen.pw: %w", err)
		}
		return nil
	case ABDWrite:
		return validTagged(v.C)
	case ABDWriteAck, ABDRead:
		return nil
	case ABDReadAck:
		return validTagged(v.C)
	case Keyed:
		if v.Key == "" {
			return fmt.Errorf("%w: empty key", ErrMalformed)
		}
		if len(v.Key) > MaxKeyLen {
			return fmt.Errorf("%w: key longer than %d bytes", ErrMalformed, MaxKeyLen)
		}
		switch v.Inner.(type) {
		case Keyed:
			return fmt.Errorf("%w: nested keyed envelope", ErrMalformed)
		case Batch:
			// A batch may carry keyed messages, never the other way
			// round: past the endpoint boundary nothing must be able to
			// smuggle a batch into an automaton.
			return fmt.Errorf("%w: batch inside keyed envelope", ErrMalformed)
		}
		if err := Validate(v.Inner); err != nil {
			return fmt.Errorf("keyed %q: %w", v.Key, err)
		}
		return nil
	case Batch:
		if len(v.Msgs) == 0 {
			return fmt.Errorf("%w: empty batch", ErrMalformed)
		}
		if len(v.Msgs) > MaxBatchEntries {
			return fmt.Errorf("%w: batch too large (%d)", ErrMalformed, len(v.Msgs))
		}
		for i, inner := range v.Msgs {
			if _, keyed := inner.(Keyed); !keyed {
				return fmt.Errorf("%w: batch entry %d is %T, not keyed", ErrMalformed, i, inner)
			}
			if err := Validate(inner); err != nil {
				return fmt.Errorf("batch entry %d: %w", i, err)
			}
		}
		return nil
	case nil:
		return fmt.Errorf("%w: nil message", ErrMalformed)
	default:
		return fmt.Errorf("%w: unknown message type %T", ErrMalformed, m)
	}
}

func validTagged(c types.Tagged) error {
	if c.TS < types.TS0 {
		return fmt.Errorf("%w: negative timestamp %d", ErrMalformed, c.TS)
	}
	if c.W < 0 {
		return fmt.Errorf("%w: negative writer id %d", ErrMalformed, c.W)
	}
	if c.TS == types.TS0 && c.Val != "" {
		return fmt.Errorf("%w: non-⊥ value with timestamp ts0", ErrMalformed)
	}
	return nil
}

// smallFrozenSet is the size up to which duplicate detection scans the
// prefix linearly instead of building a map. Frozen sets hold at most
// one entry per reader with an outstanding slow READ, so in practice
// they are tiny and the allocation-free scan is both the common and the
// fast case.
const smallFrozenSet = 8

func validFrozenSet(fs []types.FrozenEntry) error {
	if len(fs) > maxFrozenEntries {
		return fmt.Errorf("%w: frozen set too large (%d)", ErrMalformed, len(fs))
	}
	var seen map[types.ProcID]bool
	if len(fs) > smallFrozenSet {
		seen = make(map[types.ProcID]bool, len(fs))
	}
	for i, f := range fs {
		if !f.Reader.IsReader() {
			return fmt.Errorf("%w: frozen entry for non-reader %q", ErrMalformed, f.Reader)
		}
		if seen != nil {
			if seen[f.Reader] {
				return fmt.Errorf("%w: duplicate frozen entry for %q", ErrMalformed, f.Reader)
			}
			seen[f.Reader] = true
		} else {
			for _, g := range fs[:i] {
				if g.Reader == f.Reader {
					return fmt.Errorf("%w: duplicate frozen entry for %q", ErrMalformed, f.Reader)
				}
			}
		}
		if err := validTagged(f.PW); err != nil {
			return fmt.Errorf("frozen entry for %q: %w", f.Reader, err)
		}
	}
	return nil
}
