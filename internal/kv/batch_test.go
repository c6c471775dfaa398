package kv

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// batchOf builds n keys and a PutBatch argument writing val under each.
func batchOf(n int, val types.Value) ([]string, map[string]types.Value) {
	keys := make([]string, n)
	puts := make(map[string]types.Value, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
		puts[keys[i]] = val
	}
	return keys, puts
}

// wantBatchFrames checks that every listed server was sent exactly
// rounds frames, each a wire.Batch carrying width messages.
func wantBatchFrames(t *testing.T, what string, sent []wire.Envelope, servers []types.ProcID, rounds, width int) {
	t.Helper()
	for _, id := range servers {
		n := 0
		for _, f := range sent {
			if f.To != id {
				continue
			}
			n++
			if b, ok := f.Msg.(wire.Batch); !ok || len(b.Msgs) != width {
				t.Errorf("%s: frame to %s is %T, want a batch of %d", what, id, f.Msg, width)
			}
		}
		if n != rounds {
			t.Errorf("%s: %d frames to %s, want %d (one per round)", what, n, id, rounds)
		}
	}
}

// TestBatchRoundsTravelTogether pins the lock-step driver's shape on
// both paths. Calm, a batch of 32 is one round: one frame of 32 to each
// server. With a server down and fw = 0 every WRITE of the batch misses
// the fast path and runs its W rounds — together: three frames per live
// server, and one round timer for the whole batch rather than one per
// key; READs stay fast (fr = 1) and wait the timer out once.
func TestBatchRoundsTravelTogether(t *testing.T) {
	const width = 32
	const timer = 100 * time.Millisecond
	cfg := core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1, RoundTimeout: timer}
	st, w, r, runners := recordedFleet(t, cfg, 0)
	keys, puts := batchOf(width, "calm")
	all := types.ServerIDs(cfg.S())

	if err := st.PutBatch(puts); err != nil {
		t.Fatal(err)
	}
	wantBatchFrames(t, "calm PutBatch", w.take(), all, 1, width)
	if _, err := st.GetBatch(0, keys); err != nil {
		t.Fatal(err)
	}
	wantBatchFrames(t, "calm GetBatch", r.take(), all, 1, width)
	for _, k := range keys {
		if m, _ := st.PutMeta(k); m.Rounds != 1 || !m.Fast {
			t.Fatalf("calm put of %s: %+v, want one fast round", k, m)
		}
	}

	runners[2].Crash()
	live := all[:2]
	_, puts = batchOf(width, "one-down")

	t0 := time.Now()
	if err := st.PutBatch(puts); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d >= 2*timer {
		t.Errorf("PutBatch with a server down took %v: more than one round timer (%v) was waited out", d, timer)
	}
	wantBatchFrames(t, "one-down PutBatch", w.take(), live, 3, width)
	for _, k := range keys {
		if m, _ := st.PutMeta(k); m.Rounds != 3 || m.Fast {
			t.Errorf("one-down put of %s: %+v, want 3 rounds, not fast", k, m)
		}
	}

	t0 = time.Now()
	got, err := st.GetBatch(0, keys)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d >= 2*timer {
		t.Errorf("GetBatch with a server down took %v: more than one round timer (%v) was waited out", d, timer)
	}
	wantBatchFrames(t, "one-down GetBatch", r.take(), live, 1, width)
	for _, k := range keys {
		if m, _ := st.GetMeta(0, k); m.Rounds() != 1 {
			t.Errorf("one-down get of %s: %+v, want one round", k, m)
		}
		if got[k].Val != "one-down" {
			t.Errorf("%s = %+v, want the one-down write", k, got[k])
		}
	}
}

// A batch runs on its caller: no goroutine per key, none for the batch.
// The one goroutine allowed while it runs is not the driver's: a client
// endpoint's inbox (transport.Mailbox) starts its self-retiring overflow
// drainer when more replies land on it at once than its buffer holds.
func TestBatchAddsNoGoroutines(t *testing.T) {
	st := testStore(t)
	keys, puts := batchOf(32, "v")
	if err := st.PutBatch(puts); err != nil { // first use: handles, connections
		t.Fatal(err)
	}
	if _, err := st.GetBatch(0, keys); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	during := 0
	if err := st.putBatch(puts, func(string, core.WriteMeta) {
		during = max(during, runtime.NumGoroutine())
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetBatch(0, keys); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); during > before+1 || after > before+1 {
		t.Errorf("goroutines: %d before the batches, %d while a PutBatch ran, %d after", before, during, after)
	}
}
