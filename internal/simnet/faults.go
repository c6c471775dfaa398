package simnet

// Scripted network faults for the chaos engine (internal/chaos):
// partitions built from held links, probabilistic per-link drop and
// duplication, and delay-spike jitter. All primitives are driven by the
// network's seeded fault RNG, so a schedule that consults them is
// reproducible given the same seed and message arrival order.
//
// The fault model stays inside the paper's assumptions wherever
// possible: a partition is asynchrony (messages "remain in transit"
// until the partition heals, exactly like Hold/Release), while Drop
// models a lossy link — indistinguishable, to its clients, from the
// affected server being crash-faulty, so schedules must keep lossy
// links within the failure budget t (and within fr/fw for luckiness
// claims). Duplicate and jitter never threaten correctness: clients
// deduplicate acks per server and tolerate arbitrary delay.

import (
	"math/rand"
	"time"

	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// LinkFaults configures probabilistic faults on one directed link.
// The zero value is a fault-free link.
type LinkFaults struct {
	// Drop is the probability a message on the link is lost forever.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// JitterMax adds a uniformly random extra delivery delay in
	// [0, JitterMax) per message — a delay spike, not a rate change.
	JitterMax time.Duration
}

// active reports whether the spec does anything.
func (f LinkFaults) active() bool {
	return f.Drop > 0 || f.Duplicate > 0 || f.JitterMax > 0
}

// WithFaultSeed seeds the RNG behind probabilistic link faults
// (SetLinkFaults). Networks created without this option use seed 1, so
// fault decisions are deterministic by default given message order.
func WithFaultSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// SetLinkFaults installs probabilistic faults on the directed link
// from→to, replacing any previous spec for that link. A zero spec
// clears the link.
func (n *Network) SetLinkFaults(from, to types.ProcID, f LinkFaults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := link{from, to}
	if !f.active() {
		delete(n.faults, l)
		return
	}
	n.faults[l] = f
}

// SetProcFaults installs the same fault spec on every link into and out
// of id — the "flaky machine" shape chaos scenarios use, since real
// packet loss afflicts a host's links together.
func (n *Network) SetProcFaults(id types.ProcID, f LinkFaults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.endpoints {
		if other == id {
			continue
		}
		for _, l := range [2]link{{id, other}, {other, id}} {
			if !f.active() {
				delete(n.faults, l)
			} else {
				n.faults[l] = f
			}
		}
	}
}

// ClearAllFaults removes every probabilistic link fault.
func (n *Network) ClearAllFaults() {
	n.mu.Lock()
	defer n.mu.Unlock()
	clear(n.faults)
}

// SetPartition cuts the network into the given groups: every link
// between processes in different groups is held (its messages stay in
// transit), links within a group — and links of processes not named in
// any group — are unaffected. Calling SetPartition again replaces the
// partition: links no longer cut are released, delivering their
// backlog in order. SetPartition() with no groups heals everything.
//
// Partition holds are tracked separately from explicit Hold calls: a
// link the user already held is left alone, and healing releases only
// the links the partition itself cut.
func (n *Network) SetPartition(groups ...[]types.ProcID) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	want := make(map[link]bool)
	for gi, g := range groups {
		for gj, h := range groups {
			if gi == gj {
				continue
			}
			for _, a := range g {
				for _, b := range h {
					want[link{a, b}] = true
				}
			}
		}
	}
	for l := range want {
		if n.cut[l] {
			continue
		}
		if _, userHeld := n.held[l]; userHeld {
			continue // the user's Hold owns this link; leave it to them
		}
		n.held[l] = []wire.Envelope{}
		n.cut[l] = true
	}
	var release []link
	for l := range n.cut {
		if !want[l] {
			release = append(release, l)
			delete(n.cut, l)
		}
	}
	n.mu.Unlock()
	for _, l := range release {
		n.Release(l.from, l.to)
	}
}

// Heal releases every link the current partition cut.
func (n *Network) Heal() { n.SetPartition() }

// Partitioned reports whether the directed link from→to is currently
// cut by the partition.
func (n *Network) Partitioned(from, to types.ProcID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cut[link{from, to}]
}
