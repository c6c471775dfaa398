package luckystore

import (
	"luckystore/internal/core"
	"luckystore/internal/regular"
	"luckystore/internal/twophase"
)

// The Appendix D regular variant: a SWMR robust *regular* storage that
// gives up the read hierarchy (two overlapping readers may observe a
// new/old inversion) in exchange for tolerating arbitrarily many
// malicious readers — servers ignore reader write-backs — and the
// maximal fast thresholds: lucky WRITEs stay one round-trip despite
// t − b failures and lucky READs despite t failures.
type (
	// RegularConfig parameterizes a regular-variant deployment.
	RegularConfig = regular.Config
	// RegularCluster is a running regular-variant deployment.
	RegularCluster = regular.Cluster
	// RegularWriter is the regular-variant writer client: the core
	// Writer with one W round and the fast check at S − (t − b)
	// PW_ACKs, built by the cluster (regular.NewWriter).
	RegularWriter = core.Writer
	// RegularReader is a regular-variant reader client: the core Reader
	// without the write-back, built by the cluster (regular.NewReader).
	RegularReader = core.Reader
)

// NewRegular builds and starts an Appendix D regular-variant cluster on
// an in-memory network.
func NewRegular(cfg RegularConfig) (*RegularCluster, error) {
	return regular.NewCluster(cfg)
}

// The Appendix C two-phase variant: every WRITE completes in at most
// two communication round-trips (no fast-write path, but a better worst
// case than the core algorithm's three rounds) and every lucky READ is
// fast despite fr failures, at the price of S = 2t + b + min(b, fr) + 1
// servers — exactly one more than optimal when b, fr > 0, which
// Proposition 5 proves necessary.
type (
	// TwoPhaseConfig parameterizes a two-phase deployment.
	TwoPhaseConfig = twophase.Config
	// TwoPhaseCluster is a running two-phase deployment.
	TwoPhaseCluster = twophase.Cluster
	// TwoPhaseWriter is the two-phase writer client: the core Writer
	// with no fast path and one W round carrying the frozen set, built
	// by the cluster (twophase.NewWriter).
	TwoPhaseWriter = core.Writer
	// TwoPhaseReader is a two-phase reader client: the core Reader with
	// the Fig. 7 fast predicate and a two-round write-back, built by the
	// cluster (twophase.NewReader).
	TwoPhaseReader = core.Reader
)

// NewTwoPhase builds and starts an Appendix C two-phase cluster on an
// in-memory network.
func NewTwoPhase(cfg TwoPhaseConfig) (*TwoPhaseCluster, error) {
	return twophase.NewCluster(cfg)
}
