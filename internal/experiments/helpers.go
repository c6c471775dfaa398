package experiments

import (
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

// expRoundTimeout is the round-1 timer used across experiments: long
// enough that every in-process reply beats it by orders of magnitude.
const expRoundTimeout = 15 * time.Millisecond

// expOpTimeout bounds one experiment operation; scripted runs that
// deliberately block rely on it.
const expOpTimeout = 5 * time.Second

// manualCluster assembles servers over a simnet without the config
// validation of core.NewCluster — the escape hatch the upper-bound
// experiments use to build deliberately misconfigured or undersized
// deployments.
type manualCluster struct {
	*core.Servers
	sim *simnet.Network
}

// newManualCluster starts the given automata as servers s0..s(n-1) and
// registers one writer and nReaders reader endpoints.
func newManualCluster(automata []node.Automaton, nReaders int) (*manualCluster, error) {
	ids := append(types.ServerIDs(len(automata)), types.WriterID())
	ids = append(ids, types.ReaderIDs(nReaders)...)
	sim, err := simnet.New(ids)
	if err != nil {
		return nil, err
	}
	srvs, err := core.NewServers(sim, len(automata), func(i int) (node.Automaton, []node.Automaton, func(wire.Message) int) {
		return automata[i], nil, nil
	}, nil, nil)
	if err != nil {
		return nil, err
	}
	return &manualCluster{srvs, sim}, nil
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
	r := &weakReader{ep: ep, n: nServers, th: th, tsr: tsr, view: core.NewViewWithThresholds(th, tsr),
		roundTimeout: roundTimeout, deadline: time.Now().Add(opTimeout)}
	var drv drive.Private
	if err := drv.Wait(ep, r, false, r.query()); err != nil {
		return weakReadMeta{}, err
	}
	return r.meta, nil
}

// weakReader is weakRead's READ as a drive.Op.
type weakReader struct {
	ep              transport.Endpoint
	n               int // servers
	th              core.Thresholds
	tsr             types.ReaderTS
	view            *core.View
	roundTimeout    time.Duration
	rnd             int
	acks            map[types.ProcID]bool
	timer, deadline time.Time
	expired         bool
	meta            weakReadMeta
}

// query sends the next READ round to every server; round 1 arms the
// timer.
func (r *weakReader) query() error {
	r.rnd++
	r.acks = make(map[types.ProcID]bool, r.n)
	for i := 0; i < r.n; i++ {
		if err := r.ep.Send(types.ServerID(i), wire.Read{TSR: r.tsr, Round: r.rnd}); err != nil {
			return err
		}
	}
	if r.rnd == 1 {
		r.timer = time.Now().Add(r.roundTimeout)
	}
	return nil
}

func (r *weakReader) Deliver(env wire.Envelope) {
	a, isAck := env.Msg.(wire.ReadAck)
	if !isAck || !env.From.IsServer() || a.TSR != r.tsr || wire.Validate(a) != nil || a.Round > r.rnd {
		return
	}
	if a.Round == r.rnd {
		r.acks[env.From] = true
	}
	r.view.Update(env.From, a.Round, a.PW, a.W, a.VW, a.Frozen)
}

func (r *weakReader) Decided() bool {
	n := len(r.acks)
	return r.meta.TimedOut || n >= r.n || (n >= r.th.Quorum && (r.rnd > 1 || r.expired))
}

func (r *weakReader) Deadline() time.Time {
	if !r.expired && r.timer.Before(r.deadline) {
		return r.timer
	}
	return r.deadline
}

func (r *weakReader) Expire(now time.Time) {
	r.expired = r.expired || !now.Before(r.timer)
	if !now.Before(r.deadline) {
		r.meta = weakReadMeta{Rounds: r.rnd, TimedOut: true}
	}
}

func (r *weakReader) Advance() (bool, error) {
	if r.meta.TimedOut {
		return true, nil
	}
	if c, ok := r.view.Select(); ok {
		r.meta = weakReadMeta{Returned: c, Rounds: r.rnd}
		return true, nil
	}
	return false, r.query()
}

// overEagerWrite performs a one-round WRITE that declares success after
// acks from S − fw servers with fw beyond the t−b bound — the
// implementation Appendix B proves unsafe. It sends only the PW round.
func overEagerWrite(ep transport.Endpoint, nServers, needAcks int, ts types.TS, v types.Value,
	opTimeout time.Duration) error {

	c := types.Tagged{TS: ts, Val: v}
	for i := 0; i < nServers; i++ {
		if err := ep.Send(types.ServerID(i), wire.PW{TS: ts, PW: c, W: types.Bottom()}); err != nil {
			return err
		}
	}
	w := &eagerWrite{ts: ts, need: needAcks, acks: make(map[types.ProcID]bool, nServers),
		deadline: time.Now().Add(opTimeout)}
	var drv drive.Private
	return drv.Wait(ep, w, false, nil)
}

// eagerWrite is overEagerWrite's PW round as a drive.Op.
type eagerWrite struct {
	ts       types.TS
	need     int
	acks     map[types.ProcID]bool
	deadline time.Time
	err      error
}

func (w *eagerWrite) Deliver(env wire.Envelope) {
	if a, isAck := env.Msg.(wire.PWAck); isAck && env.From.IsServer() && a.TS == w.ts {
		w.acks[env.From] = true
	}
}

func (w *eagerWrite) Decided() bool       { return w.err != nil || len(w.acks) >= w.need }
func (w *eagerWrite) Deadline() time.Time { return w.deadline }

func (w *eagerWrite) Expire(now time.Time) {
	if !now.Before(w.deadline) {
		w.err = fmt.Errorf("over-eager write: %w", core.ErrOpTimeout)
	}
}

func (w *eagerWrite) Advance() (bool, error) { return w.err == nil, w.err }

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
