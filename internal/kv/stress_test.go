package kv

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/core"
	"luckystore/internal/types"
)

// TestShardedStoreAtomicUnderCrashes floods one sharded server set with
// concurrent multi-key traffic — a writer goroutine and two reader
// goroutines per key — while two servers (t = 2) crash mid-run, and
// then verifies every key's history against the paper's atomicity
// definition. Run with -race this doubles as the engine's data-race
// certification: client handles, shard workers, demux pumps and the
// coalescer all interleave here.
func TestShardedStoreAtomicUnderCrashes(t *testing.T) {
	cfg := core.Config{T: 2, B: 1, Fw: 1, NumReaders: 2,
		RoundTimeout: 15 * time.Millisecond}
	st, err := Open(cfg, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const keys = 10
	const writesPerKey = 12

	recorders := make([]*checker.Recorder, keys)
	for k := range recorders {
		recorders[k] = checker.NewRecorder()
	}

	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		rec := recorders[k]

		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= writesPerKey; i++ {
				val := types.Value(fmt.Sprintf("v%d", i))
				invoke := time.Now()
				err := st.Put(key, val)
				rec.Add(checker.Op{
					Client: types.WriterID(),
					Kind:   checker.KindWrite,
					// The single writer assigns timestamps 1,2,3,… per
					// register, so write i carries timestamp i.
					Value:  types.Tagged{TS: types.TS(i), Val: val},
					Invoke: invoke,
					Return: time.Now(),
					Err:    err,
				})
				if err != nil {
					t.Errorf("put %s #%d: %v", key, i, err)
					return
				}
			}
		}()

		for r := 0; r < cfg.NumReaders; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i < writesPerKey; i++ {
					invoke := time.Now()
					got, err := st.Get(r, key)
					rec.Add(checker.Op{
						Client: types.ReaderID(r),
						Kind:   checker.KindRead,
						Value:  got,
						Invoke: invoke,
						Return: time.Now(),
						Err:    err,
					})
					if err != nil {
						t.Errorf("get %s via r%d: %v", key, r, err)
						return
					}
				}
			}(r)
		}
	}

	// Crash t servers while the traffic is in flight: first within fw
	// (writes stay fast), then the second (slow paths, still live).
	time.Sleep(5 * time.Millisecond)
	st.CrashServer(0)
	time.Sleep(5 * time.Millisecond)
	st.CrashServer(1)

	wg.Wait()

	for k := 0; k < keys; k++ {
		if vs := checker.CheckAtomicity(recorders[k].Ops()); len(vs) != 0 {
			t.Errorf("key-%d atomicity violations: %v", k, vs)
		}
	}

	// Every key still readable after the run, final value intact.
	for k := 0; k < keys; k++ {
		got, err := st.Get(0, fmt.Sprintf("key-%d", k))
		if err != nil {
			t.Fatal(err)
		}
		want := types.Tagged{TS: writesPerKey, Val: types.Value(fmt.Sprintf("v%d", writesPerKey))}
		if got != want {
			t.Errorf("key-%d final = %+v, want %+v", k, got, want)
		}
	}
}

// TestBatchesAtomicBesideLoneOps runs the lock-step batch driver where
// its handle locking can go wrong: two writers PutBatch overlapping key
// sets and two readers GetBatch the same keys through one reader client
// in opposite orders (so both pairs contend for the same handles),
// beside lone PutAsync/Get/ForwardPut traffic on the overlap, while a
// server crashes mid-run and pushes batches onto their slow rounds.
// Everything must finish, and every key's history must be atomic.
func TestBatchesAtomicBesideLoneOps(t *testing.T) {
	cfg := core.Config{T: 1, B: 0, Fw: 0, NumReaders: 2,
		RoundTimeout: 5 * time.Millisecond}
	st, err := Open(cfg, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const nkeys, iters = 12, 25
	keys := make([]string, nkeys)
	for k := range keys {
		keys[k] = fmt.Sprintf("key-%02d", k)
	}
	reversed := append([]string(nil), keys...)
	slices.Reverse(reversed)
	overlap := keys[4:8]

	rec := checker.NewRecorder()
	write := func(key string, val types.Value, m core.WriteMeta, invoke time.Time, err error) {
		rec.Add(checker.Op{Client: types.WriterID(), Kind: checker.KindWrite, Key: key,
			Value: m.Value(val), Invoke: invoke, Return: time.Now(), Err: err})
	}
	read := func(r int, key string, got types.Tagged, invoke time.Time) {
		rec.Add(checker.Op{Client: types.ReaderID(r), Kind: checker.KindRead, Key: key,
			Value: got, Invoke: invoke, Return: time.Now()})
	}

	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters && !t.Failed(); i++ {
				f(i)
			}
		}()
	}
	putBatch := func(name string, ks []string) func(int) {
		return func(i int) {
			puts := make(map[string]types.Value, len(ks))
			for _, k := range ks {
				puts[k] = types.Value(fmt.Sprintf("%s-%d-%s", name, i, k))
			}
			invoke := time.Now()
			if err := st.putBatch(puts, func(key string, m core.WriteMeta) {
				write(key, puts[key], m, invoke, nil)
			}); err != nil {
				t.Errorf("PutBatch %s #%d: %v", name, i, err)
			}
		}
	}
	getBatch := func(ks []string) func(int) {
		return func(i int) {
			invoke := time.Now()
			got, err := st.GetBatch(0, ks)
			if err != nil || len(got) != len(ks) {
				t.Errorf("GetBatch #%d: %d of %d keys, err %v", i, len(got), len(ks), err)
			}
			for k, v := range got {
				read(0, k, v, invoke)
			}
		}
	}
	run(putBatch("A", keys[:8]))
	run(putBatch("B", keys[4:]))
	run(getBatch(keys))
	run(getBatch(reversed))
	run(func(i int) { // lone writes, their stamp taken under the handle as a batch's is
		key, val := overlap[i%len(overlap)], types.Value(fmt.Sprintf("lone-%d", i))
		invoke := time.Now()
		f := st.PutAsync(key, val)
		err := f.Wait()
		write(key, val, f.Meta(), invoke, err)
		if err != nil {
			t.Errorf("lone put #%d: %v", i, err)
		}
	})
	run(func(i int) { // lone reads through both reader clients, and a handoff replay of what they saw
		key := overlap[i%len(overlap)]
		for r := 0; r < cfg.NumReaders; r++ {
			invoke := time.Now()
			got, err := st.Get(r, key)
			if err != nil {
				t.Errorf("lone get #%d via r%d: %v", i, r, err)
				return
			}
			read(r, key, got, invoke)
			if err := st.ForwardPut(key, got); err != nil {
				t.Errorf("ForwardPut #%d: %v", i, err)
			}
		}
	})
	time.Sleep(10 * time.Millisecond)
	st.CrashServer(2) // fw = 0: from here every write runs its W rounds

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<16)
		t.Fatalf("batches and lone operations wedged:\n%s", buf[:runtime.Stack(buf, true)])
	}
	if vs := checker.CheckAtomicityPerKey(rec.Ops()); len(vs) != 0 {
		t.Errorf("atomicity violations: %v", vs)
	}
}

// A key named twice in one GetBatch is read once — the batch holds each
// handle once, so it cannot deadlock on itself.
func TestGetBatchFoldsDuplicateKeys(t *testing.T) {
	st, err := Open(core.Config{T: 1, B: 0, Fw: 1, NumReaders: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetBatch(0, []string{"k", "other", "k"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["k"].Val != "v" || !got["other"].IsBottom() {
		t.Errorf("GetBatch(k, other, k) = %v", got)
	}
	if m, _ := st.GetMeta(0, "k"); m.TSR != 1 {
		t.Errorf("duplicate key was read %d times, want once", m.TSR)
	}
}
