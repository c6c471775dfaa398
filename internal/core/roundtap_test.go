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

// roundTap is a reader's endpoint as the wire sees it: it records the
// distinct (message kind, round) pairs the reader sent, so the rounds a
// READ opened can be counted without asking the reader. A resend of a
// starved round repeats a pair and counts once.
type roundTap struct {
	transport.Endpoint
	mu     sync.Mutex
	sent   map[tapRound]bool
	onSend func(wire.Message) // runs before each message leaves, if set
}

type tapRound struct {
	kind  wire.Kind
	round int
}

func (t *roundTap) Send(to types.ProcID, m wire.Message) error {
	r := tapRound{kind: m.Kind()}
	switch v := m.(type) {
	case wire.Read:
		r.round = v.Round
	case wire.W:
		r.round = v.Round
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

type tapWriter interface{ Write(types.Value) error }

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
			server: func() node.Automaton { return twophase.NewServer() },
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
