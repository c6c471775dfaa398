package core

import (
	"time"

	"luckystore/internal/metrics"
)

// Metrics is the core layer's live client-side instrumentation
// (DESIGN.md §13): per-operation counters (rounds, fast/slow/spec
// engagement) and latency histograms for WRITE and READ. A nil
// *Metrics disables everything — every recording method is nil-safe,
// so the hot paths carry only a pointer test. All instruments are
// atomic; recording allocates nothing, preserving the PR-4 allocation
// contracts with instrumentation enabled.
//
// One Metrics is shared by every Writer and Reader wired to the same
// Config (e.g. all per-key handles of a kv.Store): the counters
// aggregate across keys and clients, which is what an operator wants
// from /metrics — per-key cardinality lives in the key-class
// histograms of the kv layer, not here.
type Metrics struct {
	WriteOps    *metrics.Counter // completed WRITEs
	WriteFast   *metrics.Counter // WRITEs that skipped the W phase
	WriteRounds *metrics.Counter // total WRITE round-trips
	ReadOps     *metrics.Counter
	ReadFast    *metrics.Counter
	ReadRounds  *metrics.Counter

	// Speculative MW fast-path telemetry (DESIGN.md §12).
	SpecAttempts *metrics.Counter
	SpecOps      *metrics.Counter
	SpecFlips    *metrics.Counter
	Queries      *metrics.Counter // MW stamp-query rounds paid

	// Timer-starvation telemetry: Starved counts round-timer expiries
	// below a quorum (scheduling jitter or loss pushed acks past the
	// synchrony timer), Retransmits the re-broadcasts the grace cycle
	// then issued (see drive.Round).
	Starved     *metrics.Counter
	Retransmits *metrics.Counter

	WriteLatency *metrics.Histogram
	ReadLatency  *metrics.Histogram
}

// NewMetrics wires the core instruments into reg. Idempotent per
// registry: a second call returns instruments backed by the same
// series.
func NewMetrics(reg *metrics.Registry) *Metrics {
	ops := func(op string) metrics.Label { return metrics.L("op", op) }
	return &Metrics{
		WriteOps:     reg.Counter("lucky_core_ops_total", "Completed core register operations.", ops("write")),
		WriteFast:    reg.Counter("lucky_core_fast_ops_total", "Operations that completed on the one-round fast path.", ops("write")),
		WriteRounds:  reg.Counter("lucky_core_rounds_total", "Total communication round-trips spent by operations.", ops("write")),
		ReadOps:      reg.Counter("lucky_core_ops_total", "Completed core register operations.", ops("read")),
		ReadFast:     reg.Counter("lucky_core_fast_ops_total", "Operations that completed on the one-round fast path.", ops("read")),
		ReadRounds:   reg.Counter("lucky_core_rounds_total", "Total communication round-trips spent by operations.", ops("read")),
		SpecAttempts: reg.Counter("lucky_core_spec_attempts_total", "Speculative MW pre-writes sent (DESIGN.md §12)."),
		SpecOps:      reg.Counter("lucky_core_spec_ops_total", "WRITEs completed on the speculative MW fast path."),
		SpecFlips:    reg.Counter("lucky_core_spec_flips_total", "Speculative attempts aborted to the query-round slow path."),
		Queries:      reg.Counter("lucky_core_stamp_queries_total", "MW stamp-query rounds paid by WRITEs."),
		Starved:      reg.Counter("lucky_core_timer_starved_total", "Round-timer expiries below a quorum (jitter or loss)."),
		Retransmits:  reg.Counter("lucky_core_retransmits_total", "Round re-broadcasts issued by the retransmit grace cycle."),
		WriteLatency: reg.Histogram("lucky_core_op_latency_ns", "Core operation latency, client-observed.", ops("write")),
		ReadLatency:  reg.Histogram("lucky_core_op_latency_ns", "Core operation latency, client-observed.", ops("read")),
	}
}

// observeWrite folds one completed WRITE into the instruments.
func (m *Metrics) observeWrite(meta WriteMeta, d time.Duration) {
	if m == nil {
		return
	}
	m.WriteOps.Inc()
	m.WriteRounds.Add(int64(meta.Rounds))
	if meta.Fast {
		m.WriteFast.Inc()
	}
	if meta.Queried {
		m.Queries.Inc()
	}
	// One speculative attempt per Spec completion, one per recorded
	// ghost (an attempt that aborted inside this same operation).
	if meta.Spec {
		m.SpecAttempts.Inc()
		m.SpecOps.Inc()
	}
	if !meta.Ghost.IsZero() {
		m.SpecAttempts.Inc()
		m.SpecFlips.Inc()
	}
	m.WriteLatency.Observe(d)
}

// observeRead folds one completed READ into the instruments.
func (m *Metrics) observeRead(meta ReadMeta, d time.Duration) {
	if m == nil {
		return
	}
	m.ReadOps.Inc()
	m.ReadRounds.Add(int64(meta.Rounds()))
	if meta.Fast() {
		m.ReadFast.Inc()
	}
	m.ReadLatency.Observe(d)
}

// ServerMetrics is the server automata's shared instrumentation: one
// struct per server process, shared by every per-key automaton it
// runs, counting the protocol messages it handles. The spec/non-spec
// PW split and the NACK count are the server-side view of the MW fast
// path — a daemon exports them without any client cooperation. Nil
// disables; all methods are nil-safe and allocation-free.
type ServerMetrics struct {
	PW      *metrics.Counter // non-speculative pre-writes applied
	PWSpec  *metrics.Counter // speculative pre-writes accepted
	PWNacks *metrics.Counter // speculative pre-writes rejected (PW_NACK)
	Reads   *metrics.Counter // READ/query rounds answered
	Ws      *metrics.Counter // W-phase and write-back rounds applied
}

// NewServerMetrics wires the server instruments into reg.
func NewServerMetrics(reg *metrics.Registry) *ServerMetrics {
	msg := func(t string) metrics.Label { return metrics.L("type", t) }
	return &ServerMetrics{
		PW:      reg.Counter("lucky_server_msgs_total", "Protocol messages handled by the server automata.", msg("pw")),
		PWSpec:  reg.Counter("lucky_server_msgs_total", "Protocol messages handled by the server automata.", msg("pw_spec")),
		PWNacks: reg.Counter("lucky_server_pw_nacks_total", "Speculative pre-writes rejected with PW_NACK."),
		Reads:   reg.Counter("lucky_server_msgs_total", "Protocol messages handled by the server automata.", msg("read")),
		Ws:      reg.Counter("lucky_server_msgs_total", "Protocol messages handled by the server automata.", msg("w")),
	}
}

func (m *ServerMetrics) pw(spec bool) {
	if m == nil {
		return
	}
	if spec {
		m.PWSpec.Inc()
	} else {
		m.PW.Inc()
	}
}

func (m *ServerMetrics) pwNack() {
	if m != nil {
		m.PWNacks.Inc()
	}
}

func (m *ServerMetrics) read() {
	if m != nil {
		m.Reads.Inc()
	}
}

func (m *ServerMetrics) w() {
	if m != nil {
		m.Ws.Inc()
	}
}

// SetMetrics attaches shared server instrumentation to this automaton.
// Factories set it right after NewServer, before the automaton steps;
// the same ServerMetrics is shared by every per-key automaton of a
// server process.
func (s *Server) SetMetrics(m *ServerMetrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sm = m
}
