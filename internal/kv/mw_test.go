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

// Two writer identities of one store Put the same key concurrently:
// every write binds a distinct stamp, and a Get returns the value bound
// at the highest stamp.
func TestContendingStoresSameKey(t *testing.T) {
	cfg := mwKVConfig()
	cfg.Writers = 2
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.NumWriters(); got != 2 {
		t.Fatalf("Writers = 2 opened %d writer identities", got)
	}

	const key, perWriter = "hot", 8
	stamps := make([][]types.Stamp, st.NumWriters())
	var wg sync.WaitGroup
	for w := range stamps {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				if err := st.PutAs(w, key, types.Value(fmt.Sprintf("s%d-%d", w, k))); err != nil {
					t.Errorf("writer %d put %d: %v", w, k, err)
					return
				}
				m, err := st.PutMetaAs(w, key)
				if err != nil {
					t.Errorf("writer %d meta %d: %v", w, k, err)
					return
				}
				stamps[w] = append(stamps[w], m.Stamp())
			}
		}(w)
	}
	wg.Wait()

	written := make(map[types.Stamp]types.Value)
	var maxSt types.Stamp
	for w, ss := range stamps {
		for k, s := range ss {
			if s.Writer != types.WID(w) {
				t.Errorf("writer %d bound writer component %d", w, s.Writer)
			}
			if _, dup := written[s]; dup {
				t.Fatalf("stamp %v bound by two writers", s)
			}
			written[s] = types.Value(fmt.Sprintf("s%d-%d", w, k))
			if maxSt.Less(s) {
				maxSt = s
			}
		}
	}

	for r := 0; r < st.Config().NumReaders; r++ {
		got, err := st.Get(r, key)
		if err != nil {
			t.Fatalf("reader %d get: %v", r, err)
		}
		if got.Stamp() != maxSt || got.Val != written[maxSt] {
			t.Errorf("reader %d read %+v, want stamp %v value %q", r, got, maxSt, written[maxSt])
		}
	}
}

// Contending identities keep non-contended keys independent: each
// identity's writes to its own key are unaffected by the others.
func TestContendersDisjointKeys(t *testing.T) {
	cfg := mwKVConfig()
	cfg.Writers = 3
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for w := 0; w < st.NumWriters(); w++ {
		key := fmt.Sprintf("own-%d", w)
		if err := st.PutAs(w, key, types.Value(fmt.Sprintf("v%d", w))); err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
		m, err := st.PutMetaAs(w, key)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Queried {
			t.Errorf("writer %d skipped the MW query round", w)
		}
		if m.Stamp() != (types.Stamp{Seq: 1, Writer: types.WID(w)}) {
			t.Errorf("writer %d stamp = %v", w, m.Stamp())
		}
		got, err := st.Get(0, key)
		if err != nil {
			t.Fatal(err)
		}
		if got.Val != types.Value(fmt.Sprintf("v%d", w)) {
			t.Errorf("writer %d's key read %+v", w, got)
		}
	}
}

// Writer identities are indexed [0, NumWriters()): PutAs and PutMetaAs
// refuse any other index, and a single-writer store has identity 0
// alone.
func TestWriterIdentityValidation(t *testing.T) {
	for _, writers := range []int{0, 2} {
		cfg := mwKVConfig()
		cfg.Writers = writers
		st, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		n := st.NumWriters()
		if n != cfg.WritersN() {
			t.Errorf("Writers = %d opened %d identities", writers, n)
		}
		for _, w := range []int{-1, n} {
			if err := st.PutAs(w, "k", "v"); err == nil {
				t.Errorf("Writers = %d: PutAs(%d) accepted", writers, w)
			}
			if _, err := st.PutMetaAs(w, "k"); err == nil {
				t.Errorf("Writers = %d: PutMetaAs(%d) accepted", writers, w)
			}
		}
		if err := st.PutAs(n-1, "k", "v"); err != nil {
			t.Errorf("Writers = %d: PutAs(%d): %v", writers, n-1, err)
		}
	}
}

// The speculative write's NACK→query fallback inside a batch: a writer
// whose stamp cache went stale (a contender wrote every key since)
// PutBatches them — every key's speculative pre-write is NACKed, every
// key falls back to the query round and rebinds, all in lock-step (three
// rounds, three frames per server), and every aborted stamp is still
// reported as that write's ghost.
func TestBatchSpeculationFallsBackTogether(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := mwKVConfig()
	cfg.RoundTimeout = time.Second // calm: no verdict here is the timer's
	cfg.Writers = 2
	st, err := Open(cfg, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys, puts := batchOf(32, "v")

	// Each identity's first write of a key pays the query round and
	// leaves it calm; its second speculates. The contender goes last, so
	// the primary's cache is now two stamps behind on every key.
	for w := 0; w < 2; w++ {
		for i := 0; i < 2; i++ {
			if w == 0 {
				if err := st.PutBatch(puts); err != nil {
					t.Fatal(err)
				}
				continue
			}
			for k, v := range puts {
				if err := st.PutAs(w, k, v); err != nil {
					t.Fatal(err)
				}
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
	got, err := st.GetBatch(0, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if got[k].Val != "after-the-flip" {
			t.Errorf("%s = %+v, want the rebound write", k, got[k])
		}
	}
}
