// Package abd implements the classic Attiya–Bar-Noy–Dolev SWMR atomic
// register emulation over 2t+1 crash-prone servers ("Sharing memory
// robustly in message-passing systems", JACM 1995) — the baseline the
// paper's introduction measures itself against: in ABD every READ takes
// two communication round-trips (query + write-back), and every WRITE
// takes one.
//
// The implementation is deliberately minimal and tolerates only crash
// failures (b = 0), exactly like the original.
package abd

import (
	"errors"
	"fmt"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/drive"
	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// DefaultOpTimeout bounds one operation, converting violated model
// assumptions into errors.
const DefaultOpTimeout = drive.DefaultOpTimeout

// ErrOpTimeout is returned when an operation cannot gather a majority:
// core's sentinel, each error naming the ABD phase.
var ErrOpTimeout = core.ErrOpTimeout

// Config holds the ABD deployment parameters.
type Config struct {
	// T is the number of crash failures tolerated; S = 2t+1.
	T          int
	NumReaders int
	OpTimeout  time.Duration
}

// S returns the number of servers, 2t+1.
func (c Config) S() int { return 2*c.T + 1 }

// Quorum returns the majority size t+1.
func (c Config) Quorum() int { return c.T + 1 }

// Validate checks the parameters.
func (c Config) Validate() error {
	if c.T < 0 {
		return fmt.Errorf("abd config: t = %d must be non-negative", c.T)
	}
	if c.NumReaders < 0 {
		return fmt.Errorf("abd config: NumReaders = %d must be non-negative", c.NumReaders)
	}
	return nil
}

// shape is the drive.Shape of this deployment's clients. ABD waits for
// no timer: the default round timer serves loss recovery only.
func (c Config) shape(name string) drive.Shape {
	return drive.Shape{Name: name, S: c.S(), Need: c.Quorum(), OpTimeout: c.OpTimeout}
}

// Server is the ABD server automaton: one stored pair, update on
// write-if-newer, report on read.
type Server struct {
	c types.Tagged
}

// NewServer creates a server holding 〈ts0,⊥〉.
func NewServer() *Server { return &Server{c: types.Bottom()} }

// StepAppend implements node.Automaton.
func (s *Server) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	if wire.Validate(m) != nil {
		return out
	}
	switch v := m.(type) {
	case wire.ABDWrite:
		if s.c.Less(v.C) {
			s.c = v.C
		}
		return append(out, transport.Outgoing{To: from, Msg: wire.ABDWriteAck{Seq: v.Seq}})
	case wire.ABDRead:
		return append(out, transport.Outgoing{To: from, Msg: wire.ABDReadAck{Seq: v.Seq, C: s.c}})
	default:
		return out
	}
}

// Writer is the ABD writer: one store round per WRITE. Like every
// client it is a drive.Op: Start emits the round, replies go in by
// Deliver until a majority has answered, and Advance completes it.
type Writer struct {
	ep       transport.Endpoint
	drv      drive.Private
	rnd      drive.Round
	seq      int64 // the round in flight's, which its acks carry
	ts       types.TS
	lastMeta core.WriteMeta
}

// NewWriter creates the writer client.
func NewWriter(cfg Config, ep transport.Endpoint) *Writer {
	return &Writer{ep: ep, rnd: drive.NewRound(cfg.shape("abd WRITE"))}
}

// LastMeta returns metadata about the most recent completed WRITE: the
// stamp it bound and the rounds it ran.
func (w *Writer) LastMeta() core.WriteMeta { return w.lastMeta }

// Write stores v: one round-trip to a majority.
func (w *Writer) Write(v types.Value) error {
	return w.drv.Wait(w.ep, w, func(now time.Time, out *[]transport.Outgoing) (bool, error) {
		return w.Start(now, v, out)
	})
}

// Start begins WRITE(v) at now: it emits the store round.
func (w *Writer) Start(now time.Time, v types.Value, out *[]transport.Outgoing) (done bool, err error) {
	if v == "" {
		return false, errors.New("abd: cannot write the initial value ⊥")
	}
	w.rnd.Begin(now)
	w.ts++
	w.seq++
	w.rnd.Open(now, "store round", false, nil, wire.ABDWrite{Seq: w.seq, C: types.Tagged{TS: w.ts, Val: v}}, out)
	return false, nil
}

// Deliver counts one WRITE_ACK.
func (w *Writer) Deliver(env wire.Envelope) {
	if a, ok := env.Msg.(wire.ABDWriteAck); ok && a.Seq == w.seq {
		w.rnd.Ack(env.From)
	}
}

// Decided reports a majority of the round's acks, or a failure.
func (w *Writer) Decided() bool { return w.rnd.Decided() }

// Short is the round's (drive.Round.Short).
func (w *Writer) Short() int { return w.rnd.Short() }

// Deadline returns when Expire next has something to judge.
func (w *Writer) Deadline() time.Time { return w.rnd.Deadline() }

// Expire fires the round's loss timer at now (see drive.Round.Expire).
func (w *Writer) Expire(now time.Time, out *[]transport.Outgoing) { w.rnd.Expire(now, out) }

// Advance completes the WRITE.
func (w *Writer) Advance(time.Time, *[]transport.Outgoing) (done bool, err error) {
	if err := w.rnd.Err(); err != nil {
		return false, err
	}
	n := w.rnd.Rounds()
	w.lastMeta = core.WriteMeta{TS: w.ts, Rounds: n, Fast: n == 1}
	return true, nil
}

// Reader is the ABD reader: query round + write-back round, as a
// drive.Op (see Writer).
type Reader struct {
	ep       transport.Endpoint
	drv      drive.Private
	rnd      drive.Round
	seq      int64        // the round in flight's, which its acks carry
	wb       bool         // the write-back round is in flight, not the query
	best     types.Tagged // the highest pair the query found
	lastMeta core.ReadMeta
}

// NewReader creates a reader client.
func NewReader(cfg Config, ep transport.Endpoint) *Reader {
	return &Reader{ep: ep, rnd: drive.NewRound(cfg.shape("abd READ"))}
}

// LastMeta returns metadata about the most recent completed READ: one
// query round and the write-back's, counted as they were opened. It is
// never fast.
func (r *Reader) LastMeta() core.ReadMeta { return r.lastMeta }

// Read returns the register value after the classic two phases.
func (r *Reader) Read() (types.Tagged, error) {
	if err := r.drv.Wait(r.ep, r, r.Start); err != nil {
		return types.Tagged{}, err
	}
	return r.lastMeta.Returned, nil
}

// Start begins a READ at now with phase 1: query a majority, adopt the
// highest pair.
func (r *Reader) Start(now time.Time, out *[]transport.Outgoing) (done bool, err error) {
	r.rnd.Begin(now)
	r.wb, r.best = false, types.Bottom()
	r.seq++
	r.rnd.Open(now, "query round", false, nil, wire.ABDRead{Seq: r.seq}, out)
	return false, nil
}

// Deliver folds one READ_ACK of the query, or counts one WRITE_ACK of
// the write-back.
func (r *Reader) Deliver(env wire.Envelope) {
	switch a := env.Msg.(type) {
	case wire.ABDReadAck:
		if r.wb || a.Seq != r.seq {
			return
		}
		if _, first := r.rnd.Ack(env.From); first && r.best.Less(a.C) {
			r.best = a.C
		}
	case wire.ABDWriteAck:
		if r.wb && a.Seq == r.seq {
			r.rnd.Ack(env.From)
		}
	}
}

// Decided reports a majority of the round's acks, or a failure.
func (r *Reader) Decided() bool { return r.rnd.Decided() }

// Short is the round's (drive.Round.Short).
func (r *Reader) Short() int { return r.rnd.Short() }

// Deadline returns when Expire next has something to judge.
func (r *Reader) Deadline() time.Time { return r.rnd.Deadline() }

// Expire fires the round's loss timer at now (see drive.Round.Expire).
func (r *Reader) Expire(now time.Time, out *[]transport.Outgoing) { r.rnd.Expire(now, out) }

// Advance runs phase 2 — write the adopted pair back to a majority —
// then completes the READ.
func (r *Reader) Advance(now time.Time, out *[]transport.Outgoing) (done bool, err error) {
	if err := r.rnd.Err(); err != nil {
		return false, err
	}
	if r.wb {
		r.lastMeta = core.ReadMeta{QueryRounds: 1, WroteBack: true, Opened: r.rnd.Rounds(), Returned: r.best}
		return true, nil
	}
	r.wb = true
	r.seq++
	r.rnd.Open(now, "write-back round", false, nil, wire.ABDWrite{Seq: r.seq, C: r.best}, out)
	return false, nil
}

// Cluster wires an ABD deployment over a simulated network.
type Cluster struct {
	*core.Deployment[*Writer, *Reader]
}

// NewCluster builds and starts an ABD cluster.
func NewCluster(cfg Config, simOpts ...simnet.Option) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := core.Deploy(nil, simOpts, cfg.S(), func(int) node.Automaton { return NewServer() }, nil,
		1, func(_ types.ProcID, ep transport.Endpoint) *Writer { return NewWriter(cfg, ep) },
		cfg.NumReaders, func(_ types.ProcID, ep transport.Endpoint) *Reader { return NewReader(cfg, ep) })
	if err != nil {
		return nil, err
	}
	return &Cluster{c}, nil
}
