//go:build !race

package kv

import (
	"testing"

	"luckystore/internal/core"
)

// kvMWAllocBudget is the engine-level allocation budget for a
// speculative multi-writer Put: the core contract (1 + S message
// boxings) plus the store's own hot path — per-key handle lookup and
// the write lock — which must stay allocation-free, leaving headroom
// for runtime noise only. Excluded under -race, whose instrumentation
// inflates counts.
const kvMWAllocBudget = 10

func TestMWFastPathPutAllocs(t *testing.T) {
	st, err := Open(core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1, Writers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const key = "hot"
	for i := 0; i < 64; i++ {
		if err := st.Put(key, "warm"); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		if err := st.Put(key, "steady-state-value"); err != nil {
			t.Fatal(err)
		}
	})
	m, err := st.PutMeta(key)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Fast || !m.Spec || m.Queried {
		t.Fatalf("measurement missed the speculative fast path: %+v", m)
	}
	if allocs > kvMWAllocBudget+0.5 {
		t.Errorf("speculative MW Put: %.1f allocs/op, budget %d", allocs, kvMWAllocBudget)
	}
}

// kvBatchAllocBudget is the per-key allocation budget of a steady-state
// lucky PutBatch/GetBatch of 32 on simnet. A batched key pays exactly
// what a blocking Put/Get pays — the ten message boxings of a lucky
// round trip, measured 10.00 above — plus its 1/32 share of what the
// batch allocates once: the op slice and closures, GetBatch's result
// map, and per server the wire.Batch framing of a round (CoalesceKeyed
// out, Expand back) and the inbox's overflow drainer. PutBatch measures
// 10.97 per key, GetBatch 11.09; pinned at the measurement plus one. It
// cannot be the blocking budget itself: stepping keys together shares
// frames, not boxings.
const kvBatchAllocBudget = 12

// batchAllocStore is the deployment the blocking contracts measure on:
// S = 3, single writer.
func batchAllocStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open(core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestPutBatchSteadyStateAllocs(t *testing.T) {
	st := batchAllocStore(t)
	_, puts := batchOf(32, "warm")
	for i := 0; i < 8; i++ {
		if err := st.PutBatch(puts); err != nil {
			t.Fatal(err)
		}
	}
	_, puts = batchOf(32, "steady-state-value")
	perKey := testing.AllocsPerRun(100, func() {
		if err := st.PutBatch(puts); err != nil {
			t.Fatal(err)
		}
	}) / 32
	t.Logf("PutBatch(32): %.2f allocs per key", perKey)
	if m, _ := st.PutMeta("key-00"); !m.Fast {
		t.Fatalf("measurement missed the fast path: %+v", m)
	}
	if perKey > kvBatchAllocBudget {
		t.Errorf("PutBatch: %.2f allocs per key, budget %d", perKey, kvBatchAllocBudget)
	}
}

func TestGetBatchSteadyStateAllocs(t *testing.T) {
	st := batchAllocStore(t)
	keys, puts := batchOf(32, "stored")
	if err := st.PutBatch(puts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := st.GetBatch(0, keys); err != nil {
			t.Fatal(err)
		}
	}
	perKey := testing.AllocsPerRun(100, func() {
		if _, err := st.GetBatch(0, keys); err != nil {
			t.Fatal(err)
		}
	}) / 32
	t.Logf("GetBatch(32): %.2f allocs per key", perKey)
	if m, _ := st.GetMeta(0, "key-00"); !m.Fast() {
		t.Fatalf("measurement missed the fast path: %+v", m)
	}
	if perKey > kvBatchAllocBudget {
		t.Errorf("GetBatch: %.2f allocs per key, budget %d", perKey, kvBatchAllocBudget)
	}
}
