package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"luckystore/internal/types"
)

// Envelope is the unit transferred by every network implementation: a
// message together with its (claimed) sender and intended receiver. On
// the in-memory network the From field is trustworthy; on TCP it is
// authenticated only by the connection it arrived on (the accepting
// side overwrites it with the peer's registered identity).
type Envelope struct {
	From types.ProcID
	To   types.ProcID
	Msg  Message
}

// maxFrameSize bounds a single encoded envelope (16 MiB). Frames above
// the limit are rejected before allocation, so a malicious peer cannot
// force an arbitrary-size allocation with a forged length prefix.
const maxFrameSize = 16 << 20

// frameReadChunk bounds how much DecodeFrame's body buffer grows ahead
// of bytes actually arriving. A hostile peer can claim a 16 MiB frame
// in the length prefix and then stall; reading through chunks of this
// size means such a connection pins at most one chunk, not the whole
// claimed frame.
const frameReadChunk = 64 << 10

// maxPooledBuf caps the capacity of scratch buffers returned to the
// frame pool; occasional giant frames should not turn the pool into a
// permanent reservation of per-connection megabytes.
const maxPooledBuf = 1 << 20

// framePool holds codec scratch buffers: EncodeFrame builds each frame
// in one, DecodeFrame reads each body through one. In steady state the
// encode/decode paths therefore allocate nothing for framing.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		framePool.Put(bp)
	}
}

// Expand flattens a batched envelope into one envelope per inner
// message, preserving send order and the From/To stamps; a non-batch
// envelope expands to itself. Transports call it at the endpoint
// boundary so everything above them sees only unbatched traffic.
func Expand(env Envelope) []Envelope {
	b, ok := env.Msg.(Batch)
	if !ok {
		return []Envelope{env}
	}
	out := make([]Envelope, len(b.Msgs))
	for i, m := range b.Msgs {
		out[i] = Envelope{From: env.From, To: env.To, Msg: m}
	}
	return out
}

// EncodeFrame serializes an envelope in the binary wire format — 4-byte
// big-endian length prefix, format version byte, envelope — building
// the frame in a pooled scratch buffer and handing header and body to
// the writer as a single Write call.
func EncodeFrame(w io.Writer, env Envelope) error {
	bp := getFrameBuf()
	buf, err := AppendFrame((*bp)[:0], env)
	if err != nil {
		*bp = buf
		putFrameBuf(bp)
		return err
	}
	_, werr := w.Write(buf)
	*bp = buf
	putFrameBuf(bp)
	if werr != nil {
		return fmt.Errorf("write frame: %w", werr)
	}
	return nil
}

// DecodeFrame reads one length-prefixed envelope from r. It returns
// io.EOF unchanged on a clean end of stream, and validates the decoded
// message structurally before returning it. The frame is read through
// a pooled scratch buffer (the header too: a stack array would escape
// through the io.Reader interface and cost one heap allocation per
// frame).
func DecodeFrame(r io.Reader) (Envelope, error) {
	bp := getFrameBuf()
	buf, err := readFrame(r, (*bp)[:0])
	var env Envelope
	if err == nil {
		env, err = DecodeEnvelope(buf)
	}
	*bp = buf
	putFrameBuf(bp)
	if err != nil {
		return Envelope{}, err
	}
	if err := Validate(env.Msg); err != nil {
		return Envelope{}, err
	}
	return env, nil
}

// readFrame reads a frame's length prefix and version byte into buf
// and refuses the frame — before any of its body is read — if the
// length is out of bounds or the version is not FormatVersion. It then
// reads the envelope body over the header, growing buf only as bytes
// arrive (frameReadChunk at a time), so a forged length prefix cannot
// pin megabytes per connection. It returns buf holding the body.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	hdr := grow(buf, 4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return hdr, io.EOF
		}
		return hdr, fmt.Errorf("read frame header: %w", err)
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxFrameSize {
		return hdr, fmt.Errorf("%w: frame size %d exceeds limit %d", ErrMalformed, n, maxFrameSize)
	}
	if n < 2 { // version byte + at least an empty envelope's length bytes
		return hdr, fmt.Errorf("%w: frame size %d too small", ErrMalformed, n)
	}
	hdr = grow(hdr, 5)
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return hdr, fmt.Errorf("read frame version: %w", err)
	}
	if hdr[4] != FormatVersion {
		return hdr, fmt.Errorf("%w: unsupported wire format version %d (want %d)", ErrMalformed, hdr[4], FormatVersion)
	}
	n-- // the envelope follows the version byte
	buf = hdr[:0]
	for len(buf) < n {
		start := len(buf)
		buf = grow(buf, start+min(n-start, frameReadChunk))
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return buf, fmt.Errorf("read frame body: %w", err)
		}
	}
	return buf, nil
}

// grow extends buf to length n, reallocating amortized so chunked
// frame reads stay cheap.
func grow(buf []byte, n int) []byte {
	return slices.Grow(buf, n-len(buf))[:n]
}
