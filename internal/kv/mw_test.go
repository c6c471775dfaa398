package kv

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/metrics"
	"luckystore/internal/types"
)

func mwKVConfig() core.Config {
	return core.Config{T: 1, B: 0, Fw: 1, NumReaders: 1,
		RoundTimeout: 10 * time.Millisecond}
}

// Two stores with distinct writer identities Put the same key
// concurrently: every write binds a distinct stamp, and a Get through
// either store returns the value bound at the highest stamp.
func TestContendingStoresSameKey(t *testing.T) {
	st, err := Open(mwKVConfig(), WithContenders(1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Config().Writers; got != 2 {
		t.Fatalf("WithContenders(1) left Writers = %d, want 2", got)
	}
	ct, err := st.OpenContender(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	const key, perStore = "hot", 8
	stores := []*Store{st, ct}
	stamps := make([][]types.Stamp, len(stores))
	var wg sync.WaitGroup
	for i, s := range stores {
		wg.Add(1)
		go func(i int, s *Store) {
			defer wg.Done()
			for k := 0; k < perStore; k++ {
				if err := s.Put(key, types.Value(fmt.Sprintf("s%d-%d", i, k))); err != nil {
					t.Errorf("store %d put %d: %v", i, k, err)
					return
				}
				m, err := s.PutMeta(key)
				if err != nil {
					t.Errorf("store %d meta %d: %v", i, k, err)
					return
				}
				stamps[i] = append(stamps[i], m.Stamp())
			}
		}(i, s)
	}
	wg.Wait()

	written := make(map[types.Stamp]types.Value)
	var maxSt types.Stamp
	for i, ss := range stamps {
		for k, s := range ss {
			if s.Writer != types.WID(i) {
				t.Errorf("store %d bound writer component %d", i, s.Writer)
			}
			if _, dup := written[s]; dup {
				t.Fatalf("stamp %v bound by two stores", s)
			}
			written[s] = types.Value(fmt.Sprintf("s%d-%d", i, k))
			if maxSt.Less(s) {
				maxSt = s
			}
		}
	}

	for i, s := range stores {
		got, err := s.Get(0, key)
		if err != nil {
			t.Fatalf("store %d get: %v", i, err)
		}
		if got.Stamp() != maxSt || got.Val != written[maxSt] {
			t.Errorf("store %d read %+v, want stamp %v value %q", i, got, maxSt, written[maxSt])
		}
	}
}

// Contending stores keep non-contended keys independent: each store's
// writes to its own key are unaffected by the other store's identity.
func TestContendersDisjointKeys(t *testing.T) {
	st, err := Open(mwKVConfig(), WithContenders(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	stores := []*Store{st}
	for k := 1; k <= 2; k++ {
		ct, err := st.OpenContender(k)
		if err != nil {
			t.Fatal(err)
		}
		defer ct.Close()
		stores = append(stores, ct)
	}
	for i, s := range stores {
		key := fmt.Sprintf("own-%d", i)
		if err := s.Put(key, types.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		m, err := s.PutMeta(key)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Queried {
			t.Errorf("store %d skipped the MW query round", i)
		}
		if m.Stamp() != (types.Stamp{Seq: 1, Writer: types.WID(i)}) {
			t.Errorf("store %d stamp = %v", i, m.Stamp())
		}
		got, err := s.Get(0, key)
		if err != nil {
			t.Fatal(err)
		}
		if got.Val != types.Value(fmt.Sprintf("v%d", i)) {
			t.Errorf("store %d read %+v", i, got)
		}
	}
}

// OpenContender is guarded: out-of-range indices and stores that do not
// own a network are refused.
func TestOpenContenderValidation(t *testing.T) {
	st, err := Open(mwKVConfig(), WithContenders(1))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, k := range []int{0, -1, 2} {
		if _, err := st.OpenContender(k); err == nil {
			t.Errorf("OpenContender(%d) accepted", k)
		}
	}
	ct, err := st.OpenContender(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	if _, err := ct.OpenContender(1); err == nil {
		t.Error("contender of a contender accepted")
	}
}

// The speculative write's NACK→query fallback inside a batch: a store
// whose stamp cache went stale (a contender wrote every key since)
// PutBatches them — every key's speculative pre-write is NACKed, every
// key falls back to the query round and rebinds, all in lock-step (three
// rounds, three frames per server), and every aborted stamp is still
// reported as that write's ghost.
func TestBatchSpeculationFallsBackTogether(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := mwKVConfig()
	cfg.RoundTimeout = time.Second // calm: no verdict here is the timer's
	st, err := Open(cfg, WithContenders(1), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ct, err := st.OpenContender(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AdoptContender(ct); err != nil {
		t.Fatal(err)
	}
	keys, puts := batchOf(32, "v")

	// Each identity's first batch pays the query round and leaves it
	// calm; its second speculates. The contender goes last, so the
	// primary's cache is now two stamps behind on every key.
	for w, s := range []*Store{st, ct} {
		for i := 0; i < 2; i++ {
			if err := s.PutBatch(puts); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range keys {
			if m, _ := st.PutMetaAs(w, k); !m.Spec || m.Rounds != 1 {
				t.Fatalf("identity %d, %s: warm-up batch did not speculate: %+v", w, k, m)
			}
		}
	}
	theirs := make(map[string]types.Stamp, len(keys))
	for _, k := range keys {
		m, _ := st.PutMetaAs(1, k)
		theirs[k] = m.Stamp()
	}

	runs := reg.Counter("lucky_coalescer_runs_total", "", metrics.L("role", "writer"))
	msgs := reg.Counter("lucky_coalescer_msgs_total", "", metrics.L("role", "writer"))
	runs0, msgs0 := runs.Value(), msgs.Value()
	_, puts = batchOf(32, "after-the-flip")
	if err := st.PutBatch(puts); err != nil {
		t.Fatal(err)
	}
	// Both identities' writer coalescers report under role "writer"; only
	// the primary sent anything: 3 rounds × S servers, 32 wide.
	if r, m := runs.Value()-runs0, msgs.Value()-msgs0; r != int64(3*cfg.S()) || m != 32*r {
		t.Errorf("fallback batch left in %d runs carrying %d messages, want %d runs of 32", r, m, 3*cfg.S())
	}
	for _, k := range keys {
		m, _ := st.PutMetaAs(0, k)
		if m.Ghost.IsZero() || m.Spec || !m.Queried {
			t.Errorf("%s: %+v, want an aborted speculation (ghost) and a queried rebind", k, m)
		}
		if !m.Ghost.Less(m.Stamp()) || !theirs[k].Less(m.Stamp()) {
			t.Errorf("%s: bound %v, want above its ghost %v and the contender's %v", k, m.Stamp(), m.Ghost, theirs[k])
		}
	}
	got, err := ct.GetBatch(0, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if got[k].Val != "after-the-flip" {
			t.Errorf("%s = %+v, want the rebound write", k, got[k])
		}
	}
}
