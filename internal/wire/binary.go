// Binary wire format: a hand-rolled, append-based codec. The paper's
// whole point is that lucky operations finish in two communication
// rounds; burning the saved latency on codec overhead wastes it. This
// codec appends into caller-owned buffers (zero allocations in steady
// state on the encode side, one — the Message interface boxing — on
// the decode side for fixed-size messages) and is bounds-checked
// everywhere, since on TCP a Byzantine peer controls every byte after
// the handshake.
//
// Frame layout (see DESIGN.md §4 for the normative description):
//
//	frame    = len(4, big-endian) version(1, always 3) envelope
//	envelope = from(string) to(string) message
//	message  = kind(1) fields…
//
// Integers are varints (unsigned fields: uvarint; signed fields:
// zigzag varint), strings are uvarint length + raw bytes. A Batch
// message has no entry count: it extends to the end of the enclosing
// frame, which lets senders stream entries into a frame without
// knowing the count up front (AppendCoalesced).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"luckystore/internal/types"
)

// FormatVersion is the version byte of every frame and WAL record, and
// the only version decoded: anything else is refused before the body
// is interpreted, so the format can evolve without silent
// misinterpretation. Version 3 carries the composite ⟨seq, writer⟩
// stamp in every tagged value, PW_ACK's max stamp, PW's trailing spec
// flag and the PW_NACK kind. Versions 1 and 2 lacked the writer stamp
// and the spec flag; they are no longer read (DESIGN.md §4).
const FormatVersion = 3

// maxWireIDLen bounds the From/To identity strings in a decoded
// envelope. Valid ProcIDs are a handful of bytes; anything longer is
// forged, and rejecting it early keeps a hostile frame from forcing a
// large string allocation.
const maxWireIDLen = 255

// --- Append-based encoders ------------------------------------------

// AppendMessage appends the binary encoding of m (kind byte + fields)
// to buf and returns the extended buffer. It errors on nil messages,
// unknown types, and structurally impossible nesting (keyed inside
// keyed, batch inside keyed, non-keyed inside batch); on error the
// returned buffer may carry a partial encoding, so callers that reuse
// buffers must truncate back to the pre-call length.
func AppendMessage(buf []byte, m Message) ([]byte, error) {
	switch v := m.(type) {
	case PW:
		buf = append(buf, byte(KindPW))
		buf = binary.AppendVarint(buf, int64(v.TS))
		buf = appendTagged(buf, v.PW)
		buf = appendTagged(buf, v.W)
		buf = appendFrozenSet(buf, v.Frozen)
		spec := byte(0)
		if v.Spec {
			spec = 1
		}
		return append(buf, spec), nil
	case PWNack:
		buf = append(buf, byte(KindPWNack))
		buf = binary.AppendVarint(buf, int64(v.TS))
		buf = binary.AppendVarint(buf, int64(v.Max.Seq))
		return binary.AppendVarint(buf, int64(v.Max.Writer)), nil
	case PWAck:
		buf = append(buf, byte(KindPWAck))
		buf = binary.AppendVarint(buf, int64(v.TS))
		buf = binary.AppendVarint(buf, int64(v.Max.Seq))
		buf = binary.AppendVarint(buf, int64(v.Max.Writer))
		buf = binary.AppendUvarint(buf, uint64(len(v.NewRead)))
		for _, rs := range v.NewRead {
			buf = appendString(buf, string(rs.Reader))
			buf = binary.AppendVarint(buf, int64(rs.TSR))
		}
		return buf, nil
	case W:
		buf = append(buf, byte(KindW))
		buf = binary.AppendVarint(buf, int64(v.Round))
		buf = binary.AppendVarint(buf, v.Tag)
		buf = appendTagged(buf, v.C)
		return appendFrozenSet(buf, v.Frozen), nil
	case WAck:
		buf = append(buf, byte(KindWAck))
		buf = binary.AppendVarint(buf, int64(v.Round))
		return binary.AppendVarint(buf, v.Tag), nil
	case Read:
		buf = append(buf, byte(KindRead))
		buf = binary.AppendVarint(buf, int64(v.TSR))
		return binary.AppendVarint(buf, int64(v.Round)), nil
	case ReadAck:
		buf = append(buf, byte(KindReadAck))
		buf = binary.AppendVarint(buf, int64(v.TSR))
		buf = binary.AppendVarint(buf, int64(v.Round))
		buf = appendTagged(buf, v.PW)
		buf = appendTagged(buf, v.W)
		buf = appendTagged(buf, v.VW)
		buf = appendTagged(buf, v.Frozen.PW)
		return binary.AppendVarint(buf, int64(v.Frozen.TSR)), nil
	case ABDWrite:
		buf = append(buf, byte(KindABDWrite))
		buf = binary.AppendVarint(buf, v.Seq)
		return appendTagged(buf, v.C), nil
	case ABDWriteAck:
		buf = append(buf, byte(KindABDWriteAck))
		return binary.AppendVarint(buf, v.Seq), nil
	case ABDRead:
		buf = append(buf, byte(KindABDRead))
		return binary.AppendVarint(buf, v.Seq), nil
	case ABDReadAck:
		buf = append(buf, byte(KindABDReadAck))
		buf = binary.AppendVarint(buf, v.Seq)
		return appendTagged(buf, v.C), nil
	case Keyed:
		switch v.Inner.(type) {
		case Keyed:
			return buf, fmt.Errorf("encode: nested keyed envelope")
		case Batch:
			return buf, fmt.Errorf("encode: batch inside keyed envelope")
		case nil:
			return buf, fmt.Errorf("encode: keyed envelope with nil inner message")
		}
		buf = append(buf, byte(KindKeyed))
		buf = appendString(buf, v.Key)
		return AppendMessage(buf, v.Inner)
	case Batch:
		buf = append(buf, byte(KindBatch))
		for i, inner := range v.Msgs {
			if _, ok := inner.(Keyed); !ok {
				return buf, fmt.Errorf("encode: batch entry %d is %T, not keyed", i, inner)
			}
			var err error
			if buf, err = AppendMessage(buf, inner); err != nil {
				return buf, err
			}
		}
		return buf, nil
	case nil:
		return buf, fmt.Errorf("encode: nil message")
	default:
		return buf, fmt.Errorf("encode: unknown message type %T", m)
	}
}

// AppendEnvelope appends the binary encoding of env (from, to, message)
// to buf. Identities are capped at encode time exactly as the decoder
// caps them, so anything this encoder emits a compliant decoder
// accepts — there is no silently undeliverable frame.
func AppendEnvelope(buf []byte, env Envelope) ([]byte, error) {
	if err := checkWireIDs(env.From, env.To); err != nil {
		return buf, err
	}
	buf = appendString(buf, string(env.From))
	buf = appendString(buf, string(env.To))
	return AppendMessage(buf, env.Msg)
}

// checkWireIDs rejects identities the decoder would refuse
// (maxWireIDLen mirrors the decoder's cap).
func checkWireIDs(from, to types.ProcID) error {
	if len(from) > maxWireIDLen {
		return fmt.Errorf("encode: from identity %d bytes exceeds limit %d", len(from), maxWireIDLen)
	}
	if len(to) > maxWireIDLen {
		return fmt.Errorf("encode: to identity %d bytes exceeds limit %d", len(to), maxWireIDLen)
	}
	return nil
}

// AppendFrame appends one complete frame — length prefix, version byte,
// envelope — to buf. The length prefix covers everything after itself.
func AppendFrame(buf []byte, env Envelope) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, FormatVersion)
	buf, err := AppendEnvelope(buf, env)
	if err != nil {
		return buf[:start], fmt.Errorf("encode envelope: %w", err)
	}
	return patchFrameLen(buf, start)
}

// patchFrameLen fills in the 4-byte length prefix of the frame starting
// at start, rejecting frames over maxFrameSize.
func patchFrameLen(buf []byte, start int) ([]byte, error) {
	n := len(buf) - start - 4
	if n > maxFrameSize {
		return buf[:start], fmt.Errorf("encode envelope: frame size %d exceeds limit %d", n, maxFrameSize)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendTagged(buf []byte, c types.Tagged) []byte {
	buf = binary.AppendVarint(buf, int64(c.TS))
	buf = binary.AppendVarint(buf, int64(c.W))
	return appendString(buf, string(c.Val))
}

func appendFrozenSet(buf []byte, fs []types.FrozenEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(fs)))
	for _, f := range fs {
		buf = appendString(buf, string(f.Reader))
		buf = appendTagged(buf, f.PW)
		buf = binary.AppendVarint(buf, int64(f.TSR))
	}
	return buf
}

// --- Direct coalesced encoding --------------------------------------

// AppendCoalesced encodes a drained per-destination send queue directly
// into buf as a sequence of frames: maximal runs of Keyed messages
// stream into Batch frames — split by the same entry/byte budgets as
// CoalesceKeyed — and non-keyed messages are framed alone, preserving
// order. A single-message run collapses to a plain keyed frame, so the
// bytes on the wire are identical to the CoalesceKeyed + AppendFrame
// path; what this saves is building the intermediate []Message runs and
// Batch values and re-walking them.
//
// Messages that cannot encode (or would alone exceed the frame cap) are
// dropped, matching the Coalescer's "a failed send is a crashed
// process" stance; the first such error is returned after the rest of
// the queue has been encoded.
func AppendCoalesced(buf []byte, from, to types.ProcID, msgs []Message) ([]byte, error) {
	if err := checkWireIDs(from, to); err != nil {
		return buf, err
	}
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	frameStart := -1 // start of the open batch frame, -1 when none
	kindPos := 0     // offset of the open frame's KindBatch byte
	count := 0       // entries in the open batch frame
	runBytes := 0    // approxSize sum of those entries — CoalesceKeyed's counter
	finish := func() {
		if frameStart < 0 {
			return
		}
		var err error
		buf, err = finishBatchFrame(buf, frameStart, kindPos, count)
		if err != nil {
			fail(err)
		}
		frameStart, count, runBytes = -1, 0, 0
	}
	for _, m := range msgs {
		if _, keyed := m.(Keyed); !keyed {
			finish()
			nbuf, err := AppendFrame(buf, Envelope{From: from, To: to, Msg: m})
			if err != nil {
				fail(err)
				continue
			}
			buf = nbuf
			continue
		}
		// Split the run before this message would blow a budget, using
		// exactly CoalesceKeyed's accounting (approxSize sums) so both
		// paths split identical runs at identical entries — the
		// byte-identity the BatchSender contract promises.
		sz := approxSize(m)
		if frameStart >= 0 && (count >= batchEntriesBudget || runBytes+sz > batchBytesBudget) {
			finish()
		}
		if frameStart < 0 {
			frameStart = len(buf)
			buf = append(buf, 0, 0, 0, 0, FormatVersion)
			buf = appendString(buf, string(from))
			buf = appendString(buf, string(to))
			kindPos = len(buf)
			buf = append(buf, byte(KindBatch))
		}
		msgStart := len(buf)
		nbuf, err := AppendMessage(buf, m)
		if err != nil {
			buf = nbuf[:msgStart] // roll back the partial encoding
			fail(err)
			continue
		}
		buf = nbuf
		count++
		runBytes += sz
		if len(buf)-frameStart-4 > maxFrameSize {
			// A single message pushed the frame past the hard cap —
			// only possible when approxSize underestimated wildly, a
			// case CoalesceKeyed would turn into an un-encodable frame.
			// Give the message a frame of its own; if it does not fit
			// alone either, it is undeliverable and dropped.
			buf = buf[:msgStart]
			count--
			runBytes -= sz
			if count == 0 {
				buf = buf[:frameStart]
				frameStart = -1
			} else {
				finish()
			}
			nbuf, err := AppendFrame(buf, Envelope{From: from, To: to, Msg: m})
			if err != nil {
				fail(err)
				continue
			}
			buf = nbuf
		}
	}
	finish()
	return buf, firstErr
}

// finishBatchFrame closes a streamed batch frame holding count entries:
// a single-entry batch collapses to a plain keyed frame (the KindBatch
// byte at kindPos is cut out), an empty one vanishes, and the length
// prefix is patched last.
func finishBatchFrame(buf []byte, start, kindPos, count int) ([]byte, error) {
	if count == 0 {
		return buf[:start], nil
	}
	if count == 1 {
		copy(buf[kindPos:], buf[kindPos+1:])
		buf = buf[:len(buf)-1]
	}
	return patchFrameLen(buf, start)
}

// WriteCoalesced encodes msgs for one destination with AppendCoalesced
// into a pooled scratch buffer and writes all resulting frames with a
// single Write call.
func WriteCoalesced(w io.Writer, from, to types.ProcID, msgs []Message) error {
	if len(msgs) == 0 {
		return nil
	}
	bp := getFrameBuf()
	buf, err := AppendCoalesced((*bp)[:0], from, to, msgs)
	var werr error
	if len(buf) > 0 {
		_, werr = w.Write(buf)
	}
	*bp = buf
	putFrameBuf(bp)
	if err != nil {
		return err
	}
	if werr != nil {
		return fmt.Errorf("write frames: %w", werr)
	}
	return nil
}

// --- Bounds-checked decoders ----------------------------------------

// DecodeEnvelope decodes a complete envelope (from, to, message) — the
// body of a frame or WAL record after its version byte — from b,
// requiring that every byte is consumed. Every decode failure wraps
// ErrMalformed; the decoder never panics and never allocates more than
// the input could justify, whatever the bytes claim.
func DecodeEnvelope(b []byte) (Envelope, error) {
	d := decoder{b: b}
	var env Envelope
	env.From = d.procID()
	env.To = d.procID()
	env.Msg = d.message(0)
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes after message", len(d.b))
	}
	if d.err != nil {
		return Envelope{}, d.err
	}
	return env, nil
}

// decoder is a sticky-error cursor over one frame body. All methods are
// no-ops once err is set, so decode sequences read linearly without
// per-field error plumbing.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: decode: "+format, append([]any{ErrMalformed}, args...)...)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("unexpected end of frame")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// str decodes a length-prefixed string of at most max bytes. The length
// is checked against both max and the bytes actually present before
// anything is allocated.
func (d *decoder) str(max int) string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(max) {
		d.fail("string length %d exceeds limit %d", n, max)
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("string length %d exceeds remaining frame", n)
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// procID decodes an identity string, interning the well-known process
// ids so steady-state decoding of From/To/reader fields is
// allocation-free.
func (d *decoder) procID() types.ProcID {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxWireIDLen {
		d.fail("identity length %d exceeds limit %d", n, maxWireIDLen)
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("identity length %d exceeds remaining frame", n)
		return ""
	}
	raw := d.b[:n]
	d.b = d.b[n:]
	if id, ok := procIDIntern[string(raw)]; ok { // no-alloc map lookup
		return id
	}
	return types.ProcID(raw)
}

func (d *decoder) tagged() types.Tagged {
	ts := d.varint()
	w := d.varint()
	val := d.str(maxFrameSize)
	return types.Tagged{TS: types.TS(ts), W: types.WID(w), Val: types.Value(val)}
}

func (d *decoder) frozenSet() []types.FrozenEntry {
	cnt := d.uvarint()
	if d.err != nil || cnt == 0 {
		return nil
	}
	if cnt > maxFrozenEntries {
		d.fail("frozen set too large (%d)", cnt)
		return nil
	}
	// Preallocate no more than the remaining bytes could hold (every
	// entry is ≥ 5 bytes), so a forged count cannot force a huge
	// allocation; append grows only as entries actually decode.
	fs := make([]types.FrozenEntry, 0, min(cnt, uint64(len(d.b)/5)+1))
	for i := uint64(0); i < cnt && d.err == nil; i++ {
		var f types.FrozenEntry
		f.Reader = d.procID()
		f.PW = d.tagged()
		f.TSR = types.ReaderTS(d.varint())
		fs = append(fs, f)
	}
	if d.err != nil {
		return nil
	}
	return fs
}

// message decodes one message. depth tracks envelope nesting: 0 at the
// top of a frame, 1 inside a Batch, 2 inside a Keyed. Batches exist
// only at depth 0 and Keyed only above depth 2, so recursion is bounded
// by a constant — a hostile frame cannot drive the decoder into deep
// recursion.
func (d *decoder) message(depth int) Message {
	k := Kind(d.byte())
	if d.err != nil {
		return nil
	}
	switch k {
	case KindPW:
		var m PW
		m.TS = types.TS(d.varint())
		m.PW = d.tagged()
		m.W = d.tagged()
		m.Frozen = d.frozenSet()
		m.Spec = d.byte() != 0
		return m
	case KindPWNack:
		var m PWNack
		m.TS = types.TS(d.varint())
		m.Max.Seq = types.TS(d.varint())
		m.Max.Writer = types.WID(d.varint())
		return m
	case KindPWAck:
		var m PWAck
		m.TS = types.TS(d.varint())
		m.Max.Seq = types.TS(d.varint())
		m.Max.Writer = types.WID(d.varint())
		cnt := d.uvarint()
		if d.err == nil && cnt > maxFrozenEntries {
			d.fail("newread set too large (%d)", cnt)
		}
		if d.err == nil && cnt > 0 {
			m.NewRead = make([]types.ReadStamp, 0, min(cnt, uint64(len(d.b)/3)+1))
			for i := uint64(0); i < cnt && d.err == nil; i++ {
				var rs types.ReadStamp
				rs.Reader = d.procID()
				rs.TSR = types.ReaderTS(d.varint())
				m.NewRead = append(m.NewRead, rs)
			}
		}
		return m
	case KindW:
		var m W
		m.Round = int(d.varint())
		m.Tag = d.varint()
		m.C = d.tagged()
		m.Frozen = d.frozenSet()
		return m
	case KindWAck:
		var m WAck
		m.Round = int(d.varint())
		m.Tag = d.varint()
		return m
	case KindRead:
		var m Read
		m.TSR = types.ReaderTS(d.varint())
		m.Round = int(d.varint())
		return m
	case KindReadAck:
		var m ReadAck
		m.TSR = types.ReaderTS(d.varint())
		m.Round = int(d.varint())
		m.PW = d.tagged()
		m.W = d.tagged()
		m.VW = d.tagged()
		m.Frozen.PW = d.tagged()
		m.Frozen.TSR = types.ReaderTS(d.varint())
		return m
	case KindABDWrite:
		var m ABDWrite
		m.Seq = d.varint()
		m.C = d.tagged()
		return m
	case KindABDWriteAck:
		return ABDWriteAck{Seq: d.varint()}
	case KindABDRead:
		return ABDRead{Seq: d.varint()}
	case KindABDReadAck:
		var m ABDReadAck
		m.Seq = d.varint()
		m.C = d.tagged()
		return m
	case KindKeyed:
		if depth >= 2 {
			d.fail("nested keyed envelope")
			return nil
		}
		var m Keyed
		m.Key = d.str(MaxKeyLen)
		m.Inner = d.message(2)
		return m
	case KindBatch:
		if depth != 0 {
			d.fail("nested batch envelope")
			return nil
		}
		if len(d.b) == 0 {
			d.fail("empty batch")
			return nil
		}
		// A batch extends to the end of its frame; the entry count is
		// implicit. Msgs grows with the entries actually decoded: the
		// bytes present (every keyed entry is ≥ 5) bound only the first
		// allocation, which is all a frame of junk costs — room for 32,
		// so a round of that many keys decodes into one right-sized slice.
		msgs := make([]Message, 0, min(32, len(d.b)/5+1))
		for len(d.b) > 0 && d.err == nil {
			if len(msgs) >= MaxBatchEntries {
				d.fail("batch too large")
				return nil
			}
			inner := d.message(1)
			if d.err != nil {
				return nil
			}
			if _, ok := inner.(Keyed); !ok {
				d.fail("batch entry %d is %T, not keyed", len(msgs), inner)
				return nil
			}
			msgs = append(msgs, inner)
		}
		return Batch{Msgs: msgs}
	default:
		d.fail("unknown message kind %d", int(k))
		return nil
	}
}

// procIDIntern maps the well-known process identities to shared string
// values so decoding them never allocates. Ids outside the table (huge
// clusters, forged peers) fall back to a fresh allocation and still
// work — the table is a fast path, not a limit.
var procIDIntern = func() map[string]types.ProcID {
	const interned = 128
	const internedWriters = 16
	t := make(map[string]types.ProcID, 2*interned+internedWriters)
	for i := 0; i < internedWriters; i++ {
		w := types.WriterIDN(i)
		t[string(w)] = w
	}
	for i := 0; i < interned; i++ {
		s, r := types.ServerID(i), types.ReaderID(i)
		t[string(s)] = s
		t[string(r)] = r
	}
	return t
}()
