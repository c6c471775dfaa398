// Package core implements the paper's primary contribution: the
// optimally resilient SWMR robust atomic storage of Section 3
// (Figures 1–3), in which every lucky WRITE is fast despite up to fw
// actual server failures and every lucky READ is fast despite up to
// fr = t − b − fw failures.
//
// The package contains the server automaton (Fig. 3), the writer
// (Fig. 1), the reader with its selection predicates (Fig. 2), and a
// Cluster harness that wires them over any transport.Network.
package core

import (
	"errors"
	"fmt"
	"time"

	"luckystore/internal/drive"
)

// DefaultRoundTimeout is the default round timer and DefaultOpTimeout
// the default bound on one operation (see drive.DefaultRoundTimeout and
// drive.DefaultOpTimeout).
const (
	DefaultRoundTimeout = drive.DefaultRoundTimeout
	DefaultOpTimeout    = drive.DefaultOpTimeout
)

// ErrOpTimeout is returned when an operation exceeds Config.OpTimeout,
// which can only happen when the failure model's assumptions are
// violated.
var ErrOpTimeout = drive.ErrOpTimeout

// ErrCrashed is returned by fault-injected client operations that
// deliberately stop mid-way.
var ErrCrashed = errors.New("client crashed mid-operation (injected)")

// Config carries the resilience parameters of a deployment.
//
// The storage uses S = 2t + b + 1 servers (optimal resilience), of
// which up to T may fail and up to B of those maliciously. Fw is the
// algorithm's single tunable: a WRITE completes fast after S − Fw
// PW_ACKs, and the matching fast-read resilience is Fr() = T − B − Fw
// (Proposition 1's trade-off fw + fr = t − b).
type Config struct {
	// T is the maximum number of faulty servers tolerated (t).
	T int
	// B is the maximum number of malicious servers tolerated (b ≤ t).
	B int
	// Fw is the number of actual failures despite which every lucky
	// WRITE must still be fast (0 ≤ Fw ≤ T−B). Setting Fw = T−B gives
	// the Appendix A regime: maximal fast-write resilience, with lucky
	// READ sequences containing at most one slow READ (fr = t).
	Fw int
	// NumReaders is the number of reader processes (R).
	NumReaders int
	// Writers is the number of writer identities a deployment runs over
	// its one set of readers — a core.Cluster's writer clients, a kv
	// store's writer roles — sharing every register (MWMR). Zero or one
	// selects the single-writer protocol exactly as published: no query
	// round, stamps carry the writer's id with no contention possible.
	// Above one, a WRITE totally orders its stamp against concurrent
	// writers: by default adaptively — a writer whose stamp cache is
	// warm and whose telemetry says the key is quiet sends a speculative
	// pre-write directly (one round, servers reject stale stamps),
	// falling back to the explicit stamp-query round (one extra
	// round-trip) under contention (DESIGN.md §12).
	Writers int
	// NoSpec disables the speculative multi-writer fast path: every
	// MWMR WRITE pays the stamp-query round unconditionally, the pre-§12
	// behavior. Benchmarks and experiments use it to measure the two
	// regimes against each other; deployments have no reason to set it.
	NoSpec bool
	// RoundTimeout is the round-1 timer duration; zero selects
	// DefaultRoundTimeout.
	RoundTimeout time.Duration
	// OpTimeout bounds one operation; zero selects DefaultOpTimeout.
	OpTimeout time.Duration
	// Metrics attaches live client-side instrumentation (DESIGN.md
	// §13): every Writer and Reader built from this Config records its
	// operations into the shared instruments. Nil — the default —
	// disables recording entirely; the hot paths then carry only a nil
	// test, and either way no operation allocates for metrics.
	Metrics *Metrics
}

// S returns the number of servers, 2t + b + 1 (optimal resilience).
func (c Config) S() int { return 2*c.T + c.B + 1 }

// Fr returns the fast-read failure threshold fr = t − b − fw implied by
// the trade-off of Proposition 1.
func (c Config) Fr() int { return c.T - c.B - c.Fw }

// Quorum returns S − t, the number of replies every round waits for.
func (c Config) Quorum() int { return c.S() - c.T }

// SafeThreshold returns b + 1, the witness count for safe/safeFrozen.
func (c Config) SafeThreshold() int { return c.B + 1 }

// FastPWThreshold returns 2b + t + 1, the witness count for fast_pw
// (Fig. 2 line 5).
func (c Config) FastPWThreshold() int { return 2*c.B + c.T + 1 }

// FastWriteAcks returns S − fw, the PW_ACK count that lets a WRITE
// return after its first round (Fig. 1 line 8).
func (c Config) FastWriteAcks() int { return c.S() - c.Fw }

// WritersN returns the effective writer count: Writers, floored at one
// (the canonical single writer).
func (c Config) WritersN() int { return max(c.Writers, 1) }

// MW reports whether the deployment runs in multi-writer mode, in which
// every WRITE pays the stamp-query round.
func (c Config) MW() bool { return c.Writers > 1 }

// Validate checks the parameters against the model: 0 ≤ b ≤ t, at
// least one reader or none is fine, and 0 ≤ fw ≤ t − b so that
// fr = t − b − fw ≥ 0.
func (c Config) Validate() error {
	switch {
	case c.T < 0:
		return fmt.Errorf("config: t = %d must be non-negative", c.T)
	case c.B < 0 || c.B > c.T:
		return fmt.Errorf("config: b = %d must satisfy 0 ≤ b ≤ t = %d", c.B, c.T)
	case c.Fw < 0 || c.Fw > c.T-c.B:
		return fmt.Errorf("config: fw = %d must satisfy 0 ≤ fw ≤ t−b = %d", c.Fw, c.T-c.B)
	case c.NumReaders < 0:
		return fmt.Errorf("config: NumReaders = %d must be non-negative", c.NumReaders)
	case c.Writers < 0:
		return fmt.Errorf("config: Writers = %d must be non-negative", c.Writers)
	case c.RoundTimeout < 0:
		return fmt.Errorf("config: RoundTimeout must be non-negative")
	case c.OpTimeout < 0:
		return fmt.Errorf("config: OpTimeout must be non-negative")
	}
	return nil
}

// shape is the drive.Shape of this deployment's clients; name is the
// operation their errors name.
func (c Config) shape(name string) drive.Shape {
	sh := drive.Shape{Name: name, S: c.S(), Need: c.Quorum(), RoundTimeout: c.RoundTimeout, OpTimeout: c.OpTimeout}
	if c.Metrics != nil {
		sh.Starved, sh.Retransmits = c.Metrics.Starved, c.Metrics.Retransmits
	}
	return sh
}
