// Package fault provides failure injection: Byzantine server behaviors
// (automata that lie while keeping messages structurally valid, which
// is the strongest adversary the clients cannot filter out), split-brain
// wrappers that behave correctly toward some clients and lie to others
// (the B2 behavior in run r4 of the upper-bound proof), and a malicious
// reader that forges write-backs (the Section 5 discussion).
//
// All behaviors implement node.Automaton and plug into a cluster via
// core.WithServerAutomaton.
package fault

import (
	"math/rand"
	"sync"

	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Behavior is a function-shaped automaton.
type Behavior func(from types.ProcID, m wire.Message) []transport.Outgoing

// Step implements node.Automaton.
func (b Behavior) Step(from types.ProcID, m wire.Message) []transport.Outgoing {
	return b(from, m)
}

// Mute returns a Byzantine server that never replies. To clients it is
// indistinguishable from a crashed server, so it counts against both b
// and the "actual failures" budget f of the fast-path theorems.
func Mute() Behavior {
	return func(types.ProcID, wire.Message) []transport.Outgoing { return nil }
}

// reply wraps a single outgoing message.
func reply(to types.ProcID, m wire.Message) []transport.Outgoing {
	return []transport.Outgoing{{To: to, Msg: m}}
}

// ForgeHighTS returns a Byzantine server that acknowledges every
// request with correctly tagged replies claiming a fabricated pair
// 〈ts, val〉 in all of its fields — the canonical attack of the upper
// bound proof: imposing a value that was never written.
func ForgeHighTS(ts types.TS, val types.Value) Behavior {
	forged := types.Tagged{TS: ts, Val: val}
	return func(from types.ProcID, m wire.Message) []transport.Outgoing {
		switch v := m.(type) {
		case wire.PW:
			return reply(from, wire.PWAck{TS: v.TS})
		case wire.W:
			return reply(from, wire.WAck{Round: v.Round, Tag: v.Tag})
		case wire.Read:
			return reply(from, wire.ReadAck{
				TSR: v.TSR, Round: v.Round,
				PW: forged, W: forged, VW: forged,
				Frozen: types.FrozenPair{PW: forged, TSR: v.TSR},
			})
		default:
			return nil
		}
	}
}

// StaleBottom returns a Byzantine server that acknowledges everything
// but always reports the initial state, trying to drag readers back to
// ⊥ (a targeted "new-old inversion" attack).
func StaleBottom() Behavior {
	return func(from types.ProcID, m wire.Message) []transport.Outgoing {
		switch v := m.(type) {
		case wire.PW:
			return reply(from, wire.PWAck{TS: v.TS})
		case wire.W:
			return reply(from, wire.WAck{Round: v.Round, Tag: v.Tag})
		case wire.Read:
			return reply(from, wire.ReadAck{
				TSR: v.TSR, Round: v.Round,
				PW: types.Bottom(), W: types.Bottom(), VW: types.Bottom(),
				Frozen: types.InitialFrozen(),
			})
		default:
			return nil
		}
	}
}

// RandomLiar returns a Byzantine server that replies with correctly
// tagged acks carrying pseudo-random timestamps and values. The seed
// makes runs reproducible.
func RandomLiar(seed int64) Behavior {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	randomPair := func() types.Tagged {
		ts := types.TS(rng.Intn(1000))
		if ts == 0 {
			return types.Bottom()
		}
		return types.Tagged{TS: ts, Val: types.Value([]byte{byte(rng.Intn(26) + 'a')})}
	}
	return func(from types.ProcID, m wire.Message) []transport.Outgoing {
		mu.Lock()
		defer mu.Unlock()
		switch v := m.(type) {
		case wire.PW:
			return reply(from, wire.PWAck{TS: v.TS})
		case wire.W:
			return reply(from, wire.WAck{Round: v.Round, Tag: v.Tag})
		case wire.Read:
			return reply(from, wire.ReadAck{
				TSR: v.TSR, Round: v.Round,
				PW: randomPair(), W: randomPair(), VW: randomPair(),
				Frozen: types.FrozenPair{PW: randomPair(), TSR: v.TSR},
			})
		default:
			return nil
		}
	}
}

// Equivocator returns a Byzantine server that reports a different
// fabricated pair to every client (keyed by client id), defaulting to
// the fallback pair. Equivocation is what the b+1 witness thresholds
// exist to defeat.
//
// The behavior snapshots perClient and guards its state with a mutex:
// a sharded deployment (node.StepPool, node.Runner) steps one
// substituted automaton from several worker goroutines at once, and a
// caller mutating its map after installation must not race Step.
func Equivocator(perClient map[types.ProcID]types.Tagged, fallback types.Tagged) Behavior {
	var mu sync.Mutex
	own := make(map[types.ProcID]types.Tagged, len(perClient))
	for id, c := range perClient {
		own[id] = c
	}
	return func(from types.ProcID, m wire.Message) []transport.Outgoing {
		mu.Lock()
		defer mu.Unlock()
		c, ok := own[from]
		if !ok {
			c = fallback
		}
		switch v := m.(type) {
		case wire.PW:
			return reply(from, wire.PWAck{TS: v.TS})
		case wire.W:
			return reply(from, wire.WAck{Round: v.Round, Tag: v.Tag})
		case wire.Read:
			return reply(from, wire.ReadAck{
				TSR: v.TSR, Round: v.Round,
				PW: c, W: c, VW: c,
				Frozen: types.FrozenPair{PW: c, TSR: v.TSR},
			})
		default:
			return nil
		}
	}
}

// SplitBrain wraps a real automaton and behaves correctly toward the
// clients in honest; toward everyone else it runs the liar behavior.
// This reproduces B2 in run r4 of the upper-bound proof: "B2 plays
// according to the protocol with respect to the writer and reader1, but
// to all other servers and reader2, B2 plays like it never received any
// message".
type SplitBrain struct {
	mu   sync.Mutex
	real interface {
		Step(types.ProcID, wire.Message) []transport.Outgoing
	}
	liar   Behavior
	honest map[types.ProcID]bool
}

// NewSplitBrain builds a split-brain wrapper around real; honestTo
// lists the clients that see protocol-conformant behavior.
func NewSplitBrain(real interface {
	Step(types.ProcID, wire.Message) []transport.Outgoing
}, liar Behavior, honestTo ...types.ProcID) *SplitBrain {
	h := make(map[types.ProcID]bool, len(honestTo))
	for _, id := range honestTo {
		h[id] = true
	}
	return &SplitBrain{real: real, liar: liar, honest: h}
}

// Step implements node.Automaton.
func (s *SplitBrain) Step(from types.ProcID, m wire.Message) []transport.Outgoing {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.honest[from] {
		return s.real.Step(from, m)
	}
	return s.liar(from, m)
}

// Keyed lifts a single-register Byzantine behavior to the multi-
// register wire protocol: wire.Keyed requests are unwrapped, answered
// by b, and the replies re-wrapped under the same key, so one liar
// poisons every register of a KV deployment. Non-keyed messages pass
// through to b unchanged (a single-register deployment).
func Keyed(b Behavior) Behavior {
	return func(from types.ProcID, m wire.Message) []transport.Outgoing {
		k, ok := m.(wire.Keyed)
		if !ok {
			return b(from, m)
		}
		out := b(from, k.Inner)
		for i := range out {
			out[i].Msg = wire.Keyed{Key: k.Key, Inner: out[i].Msg}
		}
		return out
	}
}

// MaliciousReaderWriteback forges a reader write-back: it pushes the
// pair c into the servers with the three-round W pattern, exactly like
// a legitimate slow READ would — except c was never written. Section 5
// shows the atomic algorithm is vulnerable to this, and Appendix D's
// regular variant defeats it by having servers ignore reader W
// messages. quorum is the number of WAcks to await per round (use
// S−t); tsr is the forged read timestamp used as the tag.
func MaliciousReaderWriteback(ep transport.Endpoint, servers []types.ProcID, quorum int, tsr types.ReaderTS, c types.Tagged) error {
	for round := 1; round <= 3; round++ {
		for _, sid := range servers {
			if err := ep.Send(sid, wire.W{Round: round, Tag: int64(tsr), C: c}); err != nil {
				return err
			}
		}
		got := make(map[types.ProcID]bool, len(servers))
		for len(got) < quorum {
			env, ok := <-ep.Recv()
			if !ok {
				return transport.ErrClosed
			}
			if a, isAck := env.Msg.(wire.WAck); isAck && a.Round == round && a.Tag == int64(tsr) {
				got[env.From] = true
			}
		}
	}
	return nil
}
