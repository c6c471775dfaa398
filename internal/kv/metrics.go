package kv

import (
	"time"

	"luckystore/internal/metrics"
)

// StoreMetrics instruments a store end to end: per-key-class Put/Get
// latency at the blocking API boundary, async-future latency
// (submit→done, scheduling and handle serialization included), and —
// wired in by Open — the coalescer, core client, core server, and
// per-server queue-depth instruments sharing the same registry. A nil
// *StoreMetrics disables everything at the cost of one pointer test.
type StoreMetrics struct {
	reg *metrics.Registry

	putLatency [metrics.NumKeyClasses]*metrics.Histogram
	getLatency [metrics.NumKeyClasses]*metrics.Histogram
	asyncPut   *metrics.Histogram
	asyncGet   *metrics.Histogram
}

// newStoreMetrics wires the store-level instruments into reg.
func newStoreMetrics(reg *metrics.Registry) *StoreMetrics {
	m := &StoreMetrics{reg: reg}
	for c := 0; c < metrics.NumKeyClasses; c++ {
		l := metrics.L("class", metrics.KeyClassLabels[c])
		m.putLatency[c] = reg.Histogram("lucky_kv_put_latency_ns",
			"Blocking Put latency by key class, nanoseconds.", l)
		m.getLatency[c] = reg.Histogram("lucky_kv_get_latency_ns",
			"Blocking Get latency by key class, nanoseconds.", l)
	}
	m.asyncPut = reg.Histogram("lucky_kv_async_put_latency_ns",
		"PutAsync submit-to-done latency, nanoseconds.")
	m.asyncGet = reg.Histogram("lucky_kv_async_get_latency_ns",
		"GetAsync submit-to-done latency, nanoseconds.")
	return m
}

// Registry returns the registry the store's instruments live in (nil
// on an uninstrumented store) — what luckyd hands to the admin
// listener's /metrics.
func (s *Store) Registry() *metrics.Registry {
	if s.met == nil {
		return nil
	}
	return s.met.reg
}

// start starts a stopwatch on the wall clock — it times the caller, not
// the protocol — or returns zero on an uninstrumented store.
func (m *StoreMetrics) start() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

func (m *StoreMetrics) observePut(key string, t0 time.Time) {
	if m == nil {
		return
	}
	m.putLatency[metrics.KeyClass(key)].ObserveSince(t0)
}

func (m *StoreMetrics) observeGet(key string, t0 time.Time) {
	if m == nil {
		return
	}
	m.getLatency[metrics.KeyClass(key)].ObserveSince(t0)
}

func (m *StoreMetrics) observeAsyncPut(t0 time.Time) {
	if m == nil {
		return
	}
	m.asyncPut.ObserveSince(t0)
}

func (m *StoreMetrics) observeAsyncGet(t0 time.Time) {
	if m == nil {
		return
	}
	m.asyncGet.ObserveSince(t0)
}
