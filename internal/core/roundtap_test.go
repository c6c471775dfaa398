package core_test

import (
	"sync"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/fault"
	"luckystore/internal/node"
	"luckystore/internal/regular"
	"luckystore/internal/transport"
	"luckystore/internal/twophase"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// roundTap is a client's endpoint as the wire sees it: it records the
// distinct rounds the client sent — by message kind and round, and a
// pre-write by its TS too, so a WRITE whose speculative pre-write was
// abandoned counts both — so the rounds an operation opened can be
// counted without asking the client. A resend of a starved round
// repeats a key and counts once.
type roundTap struct {
	transport.Endpoint
	mu     sync.Mutex
	sent   map[tapRound]bool
	onSend func(wire.Message) // runs before each message leaves, if set
}

type tapRound struct {
	kind  wire.Kind
	round int
	ts    types.TS
}

func (t *roundTap) Send(to types.ProcID, m wire.Message) error {
	r := tapRound{kind: m.Kind()}
	switch v := m.(type) {
	case wire.Read:
		r.round = v.Round
	case wire.W:
		r.round = v.Round
	case wire.PW:
		r.ts = v.TS
	}
	t.mu.Lock()
	t.sent[r] = true
	hook := t.onSend
	t.mu.Unlock()
	if hook != nil {
		hook(m)
	}
	return t.Endpoint.Send(to, m)
}

// rounds returns the rounds seen since the last call, and forgets them.
func (t *roundTap) rounds() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.sent)
	clear(t.sent)
	return n
}

// tapProtocol is one protocol of the Fig. 2 family, as the tap test
// deploys it.
type tapProtocol struct {
	s, t, b   int
	writeBack int // the write-back rounds its READ owes
	server    func() node.Automaton
	writer    func(types.ProcID, transport.Endpoint) tapWriter
	reader    func(types.ProcID, transport.Endpoint) *core.Reader
}

type tapWriter interface {
	Write(types.Value) error
	LastMeta() core.WriteMeta
}

func tapProtocols() map[string]tapProtocol {
	const rt = 15 * time.Millisecond
	cc := core.Config{T: 2, B: 1, Fw: 1, NumReaders: 1, RoundTimeout: rt}
	tc := twophase.Config{T: 2, B: 1, Fr: 1, NumReaders: 1, RoundTimeout: rt}
	rc := regular.Config{T: 2, B: 1, NumReaders: 1, RoundTimeout: rt}
	return map[string]tapProtocol{
		"core": {s: cc.S(), t: cc.T, b: cc.B, writeBack: 3,
			server: func() node.Automaton { return core.NewServer() },
			writer: func(id types.ProcID, ep transport.Endpoint) tapWriter { return core.NewWriter(cc, id, ep) },
			reader: func(id types.ProcID, ep transport.Endpoint) *core.Reader { return core.NewReader(cc, id, ep) }},
		"twophase": {s: tc.S(), t: tc.T, b: tc.B, writeBack: 2,
			server: func() node.Automaton { return core.NewServer() },
			writer: func(_ types.ProcID, ep transport.Endpoint) tapWriter { return twophase.NewWriter(tc, ep) },
			reader: func(id types.ProcID, ep transport.Endpoint) *core.Reader { return twophase.NewReader(tc, id, ep) }},
		"regular": {s: rc.S(), t: rc.T, b: rc.B, writeBack: 0,
			server: func() node.Automaton { return core.NewRegularServer() },
			writer: func(_ types.ProcID, ep transport.Endpoint) tapWriter { return regular.NewWriter(rc, ep) },
			reader: func(id types.ProcID, ep transport.Endpoint) *core.Reader { return regular.NewReader(rc, id, ep) }},
	}
}

// TestReadRoundsMatchTheWire checks every READ's counted rounds against
// the rounds its reader put on the wire, for the core, two-phase and
// regular READs, each fast, over several query rounds, and writing back
// after one; and checks that a write-back, when one ran, took the
// protocol's length.
func TestReadRoundsMatchTheWire(t *testing.T) {
	type run struct {
		dep *core.Deployment[tapWriter, *core.Reader]
		tap *roundTap
		p   tapProtocol
	}
	cases := []struct {
		name string
		// forge makes server 0 a Byzantine forger of a pair no one wrote
		forge bool
		// setup, if set, runs after the first WRITE, before the READ
		setup     func(*testing.T, run)
		multi     bool // the READ runs more than one query round, not exactly one
		wroteBack bool // ... and writes back, if its protocol ever does
	}{
		{
			name: "fast",
		},
		{
			// Round 1 hears the forger and S−t−1 correct servers: the
			// forged pair is neither safe nor invalid, so nothing is a
			// candidate until the other t answer, released as round 2
			// leaves.
			name:  "multi-round query",
			forge: true,
			setup: func(t *testing.T, r run) {
				sim := r.dep.Sim()
				for i := r.p.s - r.p.t; i < r.p.s; i++ {
					sim.Hold(types.ServerID(i), types.ReaderID(0))
				}
				var once sync.Once
				r.tap.mu.Lock()
				r.tap.onSend = func(m wire.Message) {
					if q, ok := m.(wire.Read); ok && q.Round == 2 {
						once.Do(sim.ReleaseAll)
					}
				}
				r.tap.mu.Unlock()
			},
			multi:     true,
			wroteBack: true, // Fig. 2 line 21: only a first round is fast
		},
		{
			// A WRITE's pre-write reached b+1 servers only: the READ
			// selects it at once, and no fast predicate confirms it.
			name: "write-back",
			setup: func(t *testing.T, r run) {
				sim := r.dep.Sim()
				for i := r.p.b + 1; i < r.p.s; i++ {
					sim.Hold(types.WriterID(), types.ServerID(i))
				}
				done := make(chan error, 1)
				go func() { done <- r.dep.Writer().Write("v2") }()
				t.Cleanup(func() {
					sim.ReleaseAll()
					if err := <-done; err != nil {
						t.Error(err)
					}
				})
				// Sent to the last server last: once it is held there,
				// the b+1 servers before it have the pre-write queued
				// ahead of any READ.
				for deadline := time.Now().Add(time.Second); sim.HeldCount(types.WriterID(), types.ServerID(r.p.s-1)) == 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the pre-write of v2 was never sent")
					}
				}
			},
			wroteBack: true,
		},
	}
	for name, p := range tapProtocols() {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				tap := &roundTap{sent: make(map[tapRound]bool)}
				dep, err := core.Deploy(nil, nil, p.s, func(i int) node.Automaton {
					if tc.forge && i == 0 {
						return fault.ForgeHighTS(100, "forged")
					}
					return p.server()
				}, nil, 1, p.writer, 1, func(id types.ProcID, ep transport.Endpoint) *core.Reader {
					tap.Endpoint = ep
					return p.reader(id, tap)
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(dep.Close)
				if err := dep.Writer().Write("v1"); err != nil {
					t.Fatal(err)
				}
				if tc.setup != nil {
					tc.setup(t, run{dep, tap, p})
				}
				tap.rounds()
				if _, err := dep.Reader(0).Read(); err != nil {
					t.Fatal(err)
				}
				m, sent := dep.Reader(0).LastMeta(), tap.rounds()
				if m.Rounds() != sent {
					t.Errorf("meta counts %d rounds, the wire saw %d (%+v)", m.Rounds(), sent, m)
				}
				wb := 0
				if m.WroteBack {
					wb = p.writeBack
				}
				if m.Rounds() != m.QueryRounds+wb {
					t.Errorf("Rounds() = %d with %d query rounds and write-back %v; want query + %d", m.Rounds(), m.QueryRounds, m.WroteBack, wb)
				}
				if (m.QueryRounds > 1) != tc.multi || m.QueryRounds < 1 || m.WroteBack != (tc.wroteBack && p.writeBack > 0) {
					t.Errorf("meta %+v: not the %s case", m, tc.name)
				}
			})
		}
	}
}

// TestWriteRoundsMatchTheWire checks every WRITE's counted rounds
// against the rounds its writer put on the wire, for the core,
// two-phase and regular WRITEs: fast, slow, after a resend of a starved
// pre-write, and — for core's multi-writer stamp binding — queried and
// flipped from a NACKed speculative pre-write to the query path.
func TestWriteRoundsMatchTheWire(t *testing.T) {
	type run struct {
		dep *core.Deployment[tapWriter, *core.Reader]
		tap *roundTap
		s   int // the servers
	}
	// crash crashes servers 0 … n−1: the pre-write reaches a quorum
	// but fewer PW_ACKs than a fast WRITE needs (fw = t − b = 1 here).
	crash := func(n int) func(*testing.T, run) {
		return func(_ *testing.T, r run) {
			for i := range n {
				r.dep.CrashServer(i)
			}
		}
	}
	cases := []struct {
		name, protocol string
		writers        int // above one, core's multi-writer stamp binding
		// setup, if set, runs before the measured WRITE
		setup func(*testing.T, run)
		want  int
	}{
		{name: "core/fast", protocol: "core", want: 1},
		{name: "core/slow", protocol: "core", setup: crash(2), want: 3},
		{name: "core/multi-writer queried", protocol: "core", writers: 2, want: 2},
		{
			// E16's flip: a cold query, a speculative WRITE, then every
			// server holds a stamp above the cache, so the next
			// speculative pre-write is NACKed and the WRITE queries and
			// pre-writes again at a higher TS.
			name: "core/nack-flipped", protocol: "core", writers: 2,
			setup: func(t *testing.T, r run) {
				for _, v := range []types.Value{"a", "b"} {
					if err := r.dep.Writer().Write(v); err != nil {
						t.Fatal(err)
					}
				}
				if m := r.dep.Writer().LastMeta(); !m.Spec {
					t.Fatalf("second WRITE %+v did not speculate", m)
				}
				raced := types.Tagged{TS: 50, W: 5, Val: "raced"}
				for i := range r.s {
					r.dep.ServerAutomaton(i).(*core.Server).InjectState(raced, raced, raced)
				}
			},
			want: 3,
		},
		{name: "regular/fast", protocol: "regular", want: 1},
		{name: "regular/slow", protocol: "regular", setup: crash(2), want: 2},
		{name: "twophase", protocol: "twophase", want: 2},
		{
			// The pre-write reaches S−t−1 servers until its resend
			// leaves: it is one round, however often it is sent.
			name: "twophase/resent pre-write", protocol: "twophase",
			setup: func(t *testing.T, r run) {
				sim := r.dep.Sim()
				for i := range 3 { // t + 1 of the S = 7
					sim.Hold(types.WriterID(), types.ServerID(i))
				}
				sent := 0
				r.tap.mu.Lock()
				r.tap.onSend = func(m wire.Message) {
					if _, ok := m.(wire.PW); ok {
						if sent++; sent == r.s+1 {
							sim.ReleaseAll()
						}
					}
				}
				r.tap.mu.Unlock()
			},
			want: 2,
		},
	}
	mw := core.Config{T: 2, B: 1, Fw: 1, NumReaders: 1, Writers: 2, RoundTimeout: 15 * time.Millisecond}
	protocols := tapProtocols()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := protocols[tc.protocol]
			newWriter := p.writer
			if tc.writers > 1 {
				newWriter = func(id types.ProcID, ep transport.Endpoint) tapWriter { return core.NewWriter(mw, id, ep) }
			}
			tap := &roundTap{sent: make(map[tapRound]bool)}
			dep, err := core.Deploy(nil, nil, p.s, func(int) node.Automaton { return p.server() }, nil,
				max(tc.writers, 1), func(id types.ProcID, ep transport.Endpoint) tapWriter {
					if id == types.WriterID() {
						tap.Endpoint, ep = ep, tap
					}
					return newWriter(id, ep)
				}, 1, p.reader)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(dep.Close)
			if tc.setup != nil {
				tc.setup(t, run{dep, tap, p.s})
			}
			tap.rounds()
			w := dep.Writer()
			if err := w.Write("v"); err != nil {
				t.Fatal(err)
			}
			m, sent := w.LastMeta(), tap.rounds()
			if m.Rounds != sent {
				t.Errorf("meta counts %d rounds, the wire saw %d (%+v)", m.Rounds, sent, m)
			}
			if sent != tc.want {
				t.Errorf("the wire saw %d rounds, want %d (%+v)", sent, tc.want, m)
			}
		})
	}
}
