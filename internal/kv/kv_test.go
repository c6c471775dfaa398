package kv

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/transport"
	"luckystore/internal/types"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open(core.Config{T: 2, B: 1, Fw: 1, NumReaders: 2,
		RoundTimeout: 15 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func TestPutGetRoundTrip(t *testing.T) {
	st := testStore(t)
	if err := st.Put("greeting", "hello"); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(0, "greeting")
	if err != nil {
		t.Fatal(err)
	}
	if got != (types.Tagged{TS: 1, Val: "hello"}) {
		t.Errorf("Get = %v", got)
	}
	pm, err := st.PutMeta("greeting")
	if err != nil {
		t.Fatal(err)
	}
	gm, err := st.GetMeta(0, "greeting")
	if err != nil {
		t.Fatal(err)
	}
	if !pm.Fast || !gm.Fast() {
		t.Errorf("lucky KV ops not fast: put %+v get %+v", pm, gm)
	}
}

func TestKeysAreIndependentRegisters(t *testing.T) {
	st := testStore(t)
	if err := st.Put("a", "va"); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("a", "va2"); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("b", "vb"); err != nil {
		t.Fatal(err)
	}
	gotA, err := st.Get(0, "a")
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := st.Get(0, "b")
	if err != nil {
		t.Fatal(err)
	}
	// Per-key timestamp spaces: a is at ts 2, b at ts 1.
	if gotA != (types.Tagged{TS: 2, Val: "va2"}) {
		t.Errorf("a = %v", gotA)
	}
	if gotB != (types.Tagged{TS: 1, Val: "vb"}) {
		t.Errorf("b = %v", gotB)
	}
}

// ForwardPut is the rebalance handoff primitive: it replays a pair at
// its exact original timestamp, skips stale or bottom pairs, and keeps
// the key's timestamps monotonic so a subsequent Put continues the
// sequence.
func TestForwardPutReplaysExactPair(t *testing.T) {
	st := testStore(t)
	if err := st.ForwardPut("k", types.Tagged{TS: 7, Val: "carried"}); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(0, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got != (types.Tagged{TS: 7, Val: "carried"}) {
		t.Errorf("Get after ForwardPut = %v, want 〈7,carried〉", got)
	}
	// Stale and bottom handoffs are no-ops.
	if err := st.ForwardPut("k", types.Tagged{TS: 3, Val: "old"}); err != nil {
		t.Fatal(err)
	}
	if err := st.ForwardPut("k", types.Bottom()); err != nil {
		t.Fatal(err)
	}
	if got, _ = st.Get(1, "k"); got != (types.Tagged{TS: 7, Val: "carried"}) {
		t.Errorf("stale ForwardPut overwrote the register: %v", got)
	}
	// The local writer continues from the forwarded timestamp.
	if err := st.Put("k", "next"); err != nil {
		t.Fatal(err)
	}
	if got, _ = st.Get(0, "k"); got != (types.Tagged{TS: 8, Val: "next"}) {
		t.Errorf("Put after ForwardPut = %v, want 〈8,next〉", got)
	}
	if err := st.Flush(); err != nil {
		t.Errorf("Flush = %v", err)
	}
}

func TestGetUnwrittenKeyReturnsBottom(t *testing.T) {
	st := testStore(t)
	got, err := st.Get(1, "never-written")
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsBottom() {
		t.Errorf("Get = %v, want ⊥", got)
	}
}

func TestInvalidInputs(t *testing.T) {
	st := testStore(t)
	if err := st.Put("", "v"); err == nil {
		t.Error("empty key accepted")
	}
	if err := st.Put("k", ""); err == nil {
		t.Error("⊥ value accepted")
	}
	if _, err := st.Get(99, "k"); err == nil {
		t.Error("out-of-range reader accepted")
	}
	if _, err := Open(core.Config{T: 1, B: 2}); err == nil {
		t.Error("invalid config accepted")
	}
	// A store over external endpoints must be given one per reader: a
	// short slice would report readers it cannot read through.
	cfg := st.Config()
	for _, readers := range []int{0, 1, cfg.NumReaders, 3} {
		eps := make([]transport.Endpoint, readers)
		for i := range eps {
			eps[i] = newNopEndpoint()
		}
		ext, err := OpenWithEndpoints(cfg, newNopEndpoint(), eps)
		if (err == nil) != (readers == cfg.NumReaders) {
			t.Errorf("%d reader endpoints for NumReaders = %d: err = %v", readers, cfg.NumReaders, err)
		}
		if err == nil {
			ext.Close()
		}
	}
}

// Connect dials every identity the store speaks as, writers first, and
// a failed dial closes every endpoint dialed before it.
func TestConnectDialOrderAndCleanup(t *testing.T) {
	cfg := core.Config{T: 1, NumReaders: 2, Writers: 3}
	want := []types.ProcID{"w", "w1", "w2", "r0", "r1"}
	for failAt := -1; failAt < len(want); failAt++ {
		d := &fakeDial{failAt: failAt, closed: map[types.ProcID]bool{}}
		st, err := Connect(cfg, d.dial)
		if failAt < 0 {
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(d.asked, want) {
				t.Errorf("dialed %v, want %v", d.asked, want)
			}
			if st.NumWriters() != 3 {
				t.Errorf("NumWriters = %d, want 3", st.NumWriters())
			}
			st.Close()
			if len(d.closed) != len(want) {
				t.Errorf("Close closed %d of %d endpoints", len(d.closed), len(want))
			}
			continue
		}
		if err == nil {
			st.Close()
			t.Fatalf("dial %d failed, Connect succeeded", failAt)
		}
		if !slices.Equal(d.asked, want[:failAt+1]) {
			t.Errorf("dial %d failed after asking %v, want %v", failAt, d.asked, want[:failAt+1])
		}
		for _, id := range want[:failAt] {
			if !d.closed[id] {
				t.Errorf("dial %d failed, %s left open", failAt, id)
			}
		}
		if len(d.closed) != failAt {
			t.Errorf("dial %d failed, %d endpoints closed", failAt, len(d.closed))
		}
	}
}

// fakeDial hands out endpoints that record their Close, and fails the
// failAt-th dial (from 0; -1 never).
type fakeDial struct {
	failAt int
	asked  []types.ProcID
	closed map[types.ProcID]bool
}

func (d *fakeDial) dial(id types.ProcID) (transport.Endpoint, error) {
	d.asked = append(d.asked, id)
	if len(d.asked)-1 == d.failAt {
		return nil, errors.New("connection refused")
	}
	return fakeEndpoint{newNopEndpoint(), id, d}, nil
}

type fakeEndpoint struct {
	nopEndpoint
	id types.ProcID
	d  *fakeDial
}

func (e fakeEndpoint) ID() types.ProcID { return e.id }
func (e fakeEndpoint) Close() error     { e.d.closed[e.id] = true; return nil }

func TestConcurrentKeysAndReaders(t *testing.T) {
	st := testStore(t)
	const keys, writesPerKey = 6, 10
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", k)
			for i := 1; i <= writesPerKey; i++ {
				if err := st.Put(key, types.Value(fmt.Sprintf("v%d", i))); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", k)
			var last types.TS
			for i := 0; i < writesPerKey; i++ {
				got, err := st.Get(k%2, key)
				if err != nil {
					t.Errorf("get %s: %v", key, err)
					return
				}
				if got.TS < last {
					t.Errorf("%s: timestamp regressed %d → %d", key, last, got.TS)
					return
				}
				last = got.TS
			}
		}()
	}
	wg.Wait()

	// Every key converged to its last value.
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		got, err := st.Get(0, key)
		if err != nil {
			t.Fatal(err)
		}
		if got != (types.Tagged{TS: writesPerKey, Val: types.Value(fmt.Sprintf("v%d", writesPerKey))}) {
			t.Errorf("%s final = %v", key, got)
		}
	}
}

func TestStoreToleratesFailures(t *testing.T) {
	st := testStore(t)
	if err := st.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	st.CrashServer(0) // within fw: puts stay fast
	if err := st.Put("k", "v2"); err != nil {
		t.Fatal(err)
	}
	pm, _ := st.PutMeta("k")
	if !pm.Fast {
		t.Errorf("put meta = %+v, want fast with one crash", pm)
	}
	st.CrashServer(1) // t failures total: still available, maybe slow
	if err := st.Put("k", "v3"); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(0, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "v3" {
		t.Errorf("Get = %v", got)
	}
}
