package experiments

import (
	"errors"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/drive"
	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// expRoundTimeout is the round-1 timer used across experiments: long
// enough that every in-process reply beats it by orders of magnitude.
const expRoundTimeout = 15 * time.Millisecond

// expOpTimeout bounds one experiment operation; scripted runs that
// deliberately block rely on it.
const expOpTimeout = 5 * time.Second

// rawCluster is a deployment whose clients are raw endpoints: the
// upper-bound experiments script their clients by hand over
// deliberately misconfigured or undersized server sets.
type rawCluster = core.Deployment[transport.Endpoint, transport.Endpoint]

// newRawCluster starts the given automata as servers s0..s(n-1), with
// one writer and nReaders reader endpoints.
func newRawCluster(automata []node.Automaton, nReaders int) (*rawCluster, error) {
	endpoint := func(_ types.ProcID, ep transport.Endpoint) transport.Endpoint { return ep }
	return core.Deploy(nil, nil, len(automata), func(i int) node.Automaton { return automata[i] }, nil,
		1, endpoint, nReaders, endpoint)
}

// coreServers returns n fresh core.Server automata.
func coreServers(n int) []node.Automaton {
	out := make([]node.Automaton, n)
	for i := range out {
		out[i] = core.NewServer()
	}
	return out
}

// weakReadMeta describes one weakRead outcome.
type weakReadMeta struct {
	Returned types.Tagged
	Rounds   int
	TimedOut bool
}

// weakRead runs the paper's READ loop with arbitrary predicate
// thresholds — the instrument of the upper-bound experiments. Weakening
// Safe below b+1 (or FastPW below 2b+t+1) models an implementation
// that tries to be fast despite fw+fr > t−b, which Proposition 2 proves
// must go wrong. The read never writes back (the violating runs don't
// need it) and gives up after opTimeout, reporting TimedOut.
func weakRead(ep transport.Endpoint, nServers int, th core.Thresholds, tsr types.ReaderTS,
	roundTimeout, opTimeout time.Duration) (weakReadMeta, error) {
	r := &weakReader{Round: drive.NewRound(drive.Shape{Name: "weak READ", S: nServers, Need: th.Quorum,
		RoundTimeout: roundTimeout, OpTimeout: opTimeout}), tsr: tsr, view: core.NewViewWithThresholds(th, tsr)}
	var drv drive.Private
	if err := drv.Wait(ep, r, func(now time.Time, out *[]transport.Outgoing) (bool, error) {
		r.Begin(now)
		return r.query(now, out)
	}); err != nil {
		return weakReadMeta{}, err
	}
	return r.meta, nil
}

// weakReader is weakRead's READ as a drive.Op: its Round decides, and it
// keeps the view.
type weakReader struct {
	drive.Round
	tsr  types.ReaderTS
	view *core.View
	rnd  int
	meta weakReadMeta
}

// query emits the next READ round to every server; round 1's decision
// waits for the timer.
func (r *weakReader) query(now time.Time, out *[]transport.Outgoing) (bool, error) {
	r.rnd++
	r.Open(now, "query round", r.rnd == 1, nil, wire.Read{TSR: r.tsr, Round: r.rnd}, out)
	return false, nil
}

func (r *weakReader) Deliver(env wire.Envelope) {
	a, isAck := env.Msg.(wire.ReadAck)
	if !isAck || a.TSR != r.tsr || wire.Validate(env.Msg) != nil || a.Round > r.rnd {
		return
	}
	if a.Round == r.rnd {
		r.Ack(env.From)
	}
	r.view.Update(env.From, a.Round, a.PW, a.W, a.VW, a.Frozen)
}

func (r *weakReader) Advance(now time.Time, out *[]transport.Outgoing) (bool, error) {
	switch err := r.Err(); {
	case errors.Is(err, drive.ErrOpTimeout):
		r.meta = weakReadMeta{Rounds: r.rnd, TimedOut: true}
		return true, nil
	case err != nil:
		return false, err
	}
	if c, ok := r.view.Select(); ok {
		r.meta = weakReadMeta{Returned: c, Rounds: r.rnd}
		return true, nil
	}
	return r.query(now, out)
}

// overEagerWrite performs a one-round WRITE that declares success after
// acks from S − fw servers with fw beyond the t−b bound — the
// implementation Appendix B proves unsafe. It sends only the PW round.
func overEagerWrite(ep transport.Endpoint, nServers, needAcks int, ts types.TS, v types.Value,
	opTimeout time.Duration) error {
	w := &eagerWrite{Round: drive.NewRound(drive.Shape{Name: "over-eager WRITE", S: nServers, Need: needAcks,
		OpTimeout: opTimeout}), ts: ts}
	var drv drive.Private
	return drv.Wait(ep, w, func(now time.Time, out *[]transport.Outgoing) (bool, error) {
		w.Begin(now)
		w.Open(now, "PW round", false, nil, wire.PW{TS: ts, PW: types.Tagged{TS: ts, Val: v}, W: types.Bottom()}, out)
		return false, nil
	})
}

// eagerWrite is overEagerWrite's PW round as a drive.Op.
type eagerWrite struct {
	drive.Round
	ts types.TS
}

func (w *eagerWrite) Deliver(env wire.Envelope) {
	if a, isAck := env.Msg.(wire.PWAck); isAck && a.TS == w.ts {
		w.Ack(env.From)
	}
}

func (w *eagerWrite) Advance(time.Time, *[]transport.Outgoing) (bool, error) {
	return w.Err() == nil, w.Err()
}

// releaseAfter releases all held links of sim after d, from a separate
// goroutine; the returned func waits for it (call before Close).
func releaseAfter(sim *simnet.Network, d time.Duration) (wait func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(d)
		sim.ReleaseAll()
	}()
	return func() { <-done }
}
