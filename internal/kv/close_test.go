package kv

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/types"
)

func fixCfg() core.Config {
	return core.Config{T: 1, B: 0, Fw: 1, NumReaders: 1,
		RoundTimeout: 15 * time.Millisecond, OpTimeout: 10 * time.Second}
}

// TestMetaLookupDoesNotCreate is the regression test for
// PutMeta/GetMeta silently allocating a handle and opening a demux
// endpoint for a key that was never used: they must be pure lookups
// returning the zero meta.
func TestMetaLookupDoesNotCreate(t *testing.T) {
	st, err := Open(fixCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	pm, err := st.PutMeta("never-put")
	if err != nil {
		t.Fatal(err)
	}
	if pm != (core.WriteMeta{}) {
		t.Errorf("PutMeta on unused key = %+v, want zero meta", pm)
	}
	gm, err := st.GetMeta(0, "never-got")
	if err != nil {
		t.Fatal(err)
	}
	if gm.Rounds() != 0 {
		t.Errorf("GetMeta on unused key = %+v, want zero meta", gm)
	}
	if st.writers[0].d.Handle("never-put") != nil || st.readers[0].d.Handle("never-got") != nil {
		t.Error("meta lookups allocated handles")
	}

	// Out-of-range reader index still errors.
	if _, err := st.GetMeta(5, "x"); err == nil {
		t.Error("GetMeta accepted an out-of-range reader index")
	}

	// After real operations, metadata flows as before.
	if err := st.Put("used", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(0, "used"); err != nil {
		t.Fatal(err)
	}
	pm, err = st.PutMeta("used")
	if err != nil {
		t.Fatal(err)
	}
	if pm.TS != 1 {
		t.Errorf("PutMeta after Put = %+v", pm)
	}
	gm, err = st.GetMeta(0, "used")
	if err != nil {
		t.Fatal(err)
	}
	if gm.Rounds() == 0 {
		t.Errorf("GetMeta after Get = %+v, want recorded rounds", gm)
	}
}

// TestCloseIdempotent is the regression test for Close not being
// idempotent: double Close (sequential and concurrent) must be safe,
// and operations after Close fail fast with ErrClosed.
func TestCloseIdempotent(t *testing.T) {
	st, err := Open(fixCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st.Close() // second close: no panic, no hang

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); st.Close() }()
	}
	wg.Wait()

	if err := st.Put("k", "v2"); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}
	if _, err := st.Get(0, "k"); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after Close = %v, want ErrClosed", err)
	}
	if err := st.PutAsync("k", "v3").Wait(); !errors.Is(err, ErrClosed) {
		t.Errorf("PutAsync after Close = %v, want ErrClosed", err)
	}
	if _, err := st.GetAsync(0, "k").Wait(); !errors.Is(err, ErrClosed) {
		t.Errorf("GetAsync after Close = %v, want ErrClosed", err)
	}
}

// TestAsyncFuturesDrainOnClose pins async operations in flight by
// holding all their traffic, then closes the store: every future must
// complete with an error (their endpoints closed under them) instead of
// hanging, and Close itself must not deadlock on them.
func TestAsyncFuturesDrainOnClose(t *testing.T) {
	st, err := Open(fixCfg())
	if err != nil {
		t.Fatal(err)
	}

	// Strand the writer's and reader 0's outbound messages in transit.
	st.Sim().HoldAllFrom(types.WriterID())
	st.Sim().HoldAllFrom(types.ReaderID(0))

	var puts []*PutFuture
	var gets []*GetFuture
	for i := 0; i < 8; i++ {
		puts = append(puts, st.PutAsync("key", "stuck"))
		gets = append(gets, st.GetAsync(0, "key"))
	}
	time.Sleep(20 * time.Millisecond) // let the operations enter their wait loops

	closed := make(chan struct{})
	go func() { defer close(closed); st.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on in-flight async operations")
	}

	deadline := time.After(10 * time.Second)
	for i, f := range puts {
		select {
		case <-f.Done():
			if err := f.Wait(); err == nil {
				t.Errorf("put future %d succeeded on a closed store", i)
			}
		case <-deadline:
			t.Fatal("put future hung after Close")
		}
	}
	for i, f := range gets {
		select {
		case <-f.Done():
			if _, err := f.Wait(); err == nil {
				t.Errorf("get future %d succeeded on a closed store", i)
			}
		case <-deadline:
			t.Fatal("get future hung after Close")
		}
	}
}

// TestBatchesDrainOnClose pins a PutBatch and a GetBatch in flight by
// holding all their traffic, then closes the store: both must return
// with ErrClosed for their unfinished keys instead of hanging, every
// handle lock they took must be free again, and no goroutine may
// outlive the store.
func TestBatchesDrainOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	st, err := Open(fixCfg())
	if err != nil {
		t.Fatal(err)
	}
	st.Sim().HoldAllFrom(types.WriterID())
	st.Sim().HoldAllFrom(types.ReaderID(0))

	keys, puts := batchOf(32, "stuck")
	putErr, getErr := make(chan error, 1), make(chan error, 1)
	go func() { putErr <- st.PutBatch(puts) }()
	go func() {
		got, err := st.GetBatch(0, keys)
		if len(got) != 0 {
			err = fmt.Errorf("GetBatch returned %d values from a store that answered nothing (err %v)", len(got), err)
		}
		getErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let both batches park on their drivers

	closed := make(chan struct{})
	go func() { defer close(closed); st.Close() }()
	for what, ch := range map[string]chan error{"PutBatch": putErr, "GetBatch": getErr} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("%s racing Close = %v, want ErrClosed", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s hung on a closed store", what)
		}
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on in-flight batches")
	}

	held := 0
	for _, key := range keys {
		for _, r := range []*role{st.writers[0], st.readers[0]} {
			if h, ok := r.d.Handle(key).(*handle); ok && !h.mu.TryLock() {
				held++
			}
		}
	}
	if held != 0 {
		t.Errorf("%d handle locks still held after the batches returned", held)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines: %d before Open, %d after Close\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestParkedDriversWakeOnClose holds all traffic under a 5 s round
// timer, so that nothing but Close can end an operation for seconds: a
// lone Put, a lone Get and a PutBatch parked on their drivers' inboxes
// must each return ErrClosed within 500 ms of Close. Without Close
// closing the inboxes, only the failed resend after the timer and its
// grace would.
func TestParkedDriversWakeOnClose(t *testing.T) {
	cfg := fixCfg()
	cfg.RoundTimeout = 5 * time.Second
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Sim().HoldAllFrom(types.WriterID())
	st.Sim().HoldAllFrom(types.ReaderID(0))

	type result struct {
		what string
		err  error
	}
	results := make(chan result, 3)
	_, puts := batchOf(32, "stuck")
	go func() { results <- result{"Put", st.Put("lone", "stuck")} }()
	go func() {
		_, err := st.Get(0, "lone")
		results <- result{"Get", err}
	}()
	go func() { results <- result{"PutBatch", st.PutBatch(puts)} }()
	time.Sleep(20 * time.Millisecond) // let all three park

	closed := time.Now()
	go st.Close()
	deadline := time.After(500 * time.Millisecond)
	for range 3 {
		select {
		case r := <-results:
			if !errors.Is(r.err, ErrClosed) {
				t.Errorf("%s racing Close = %v, want ErrClosed", r.what, r.err)
			}
		case <-deadline:
			t.Fatalf("an operation was still parked %v after Close", time.Since(closed))
		}
	}
}
