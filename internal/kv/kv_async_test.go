package kv

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/keyed"
	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

func TestPutAsyncGetAsync(t *testing.T) {
	st := testStore(t)
	pf := st.PutAsync("k", "v1")
	if err := pf.Wait(); err != nil {
		t.Fatal(err)
	}
	if m := pf.Meta(); !m.Fast || m.TS != 1 {
		t.Errorf("async put meta = %+v, want fast ts=1", m)
	}
	gf := st.GetAsync(0, "k")
	got, err := gf.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got != (types.Tagged{TS: 1, Val: "v1"}) {
		t.Errorf("async get = %v", got)
	}
	select {
	case <-gf.Done():
	default:
		t.Error("Done() not closed after Wait returned")
	}
}

func TestPutAsyncInvalidKeyResolvesImmediately(t *testing.T) {
	st := testStore(t)
	if err := st.PutAsync("", "v").Wait(); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := st.GetAsync(99, "k").Wait(); err == nil {
		t.Error("out-of-range reader accepted")
	}
}

func TestPutBatchAndGetBatch(t *testing.T) {
	st := testStore(t)
	puts := make(map[string]types.Value)
	keys := make([]string, 0, 16)
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("key-%d", i)
		puts[k] = types.Value(fmt.Sprintf("val-%d", i))
		keys = append(keys, k)
	}
	if err := st.PutBatch(puts); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetBatch(0, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("GetBatch returned %d entries, want %d", len(got), len(keys))
	}
	for k, want := range puts {
		if got[k] != (types.Tagged{TS: 1, Val: want}) {
			t.Errorf("%s = %+v, want %q at ts 1", k, got[k], want)
		}
	}
}

func TestGetBatchUnwrittenKeysReturnBottom(t *testing.T) {
	st := testStore(t)
	got, err := st.GetBatch(1, []string{"nope-1", "nope-2"})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range got {
		if !v.IsBottom() {
			t.Errorf("%s = %+v, want ⊥", k, v)
		}
	}
}

func TestPutBatchReportsPartialFailures(t *testing.T) {
	st := testStore(t)
	err := st.PutBatch(map[string]types.Value{
		"good": "v",
		"":     "invalid-key",
	})
	if err == nil {
		t.Fatal("PutBatch with an invalid key reported success")
	}
	got, err := st.Get(0, "good")
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "v" {
		t.Errorf("good key = %+v, want the write applied despite sibling failure", got)
	}
}

// slowEndpoint delays every frame write and records the frames sent
// through it. Sitting between the store's coalescer and the network, it
// models a transport where frames cost real time — which is exactly
// when group commit must kick in: while the flusher is stuck in one
// Send, concurrent puts pile up and must leave as wire.Batch frames.
type slowEndpoint struct {
	transport.Endpoint
	delay  time.Duration
	mu     sync.Mutex
	frames []wire.Envelope // To and Msg of every frame, in send order
}

func (s *slowEndpoint) Send(to types.ProcID, m wire.Message) error {
	time.Sleep(s.delay)
	s.mu.Lock()
	s.frames = append(s.frames, wire.Envelope{To: to, Msg: m})
	s.mu.Unlock()
	return s.Endpoint.Send(to, m)
}

// take returns the frames recorded since the last take.
func (s *slowEndpoint) take() []wire.Envelope {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.frames
	s.frames = nil
	return out
}

// recordedFleet starts S sharded servers on a fresh in-memory network
// and a client store whose writer and reader-0 endpoints record (and
// delay) every frame they send. The runners are returned so a test can
// crash a server.
func recordedFleet(t *testing.T, cfg core.Config, delay time.Duration) (st *Store, w, r *slowEndpoint, runners []*node.Runner) {
	t.Helper()
	ids := append(types.ServerIDs(cfg.S()), types.WriterID(), types.ReaderID(0))
	sim, err := simnet.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sim.Close() })
	for i := 0; i < cfg.S(); i++ {
		ep, err := sim.Endpoint(types.ServerID(i))
		if err != nil {
			t.Fatal(err)
		}
		srv := keyed.NewShardedServer(2, func() node.Automaton { return core.NewServer() })
		r := node.NewShardedRunner(ep, srv.Shards(), srv.Route())
		r.Start()
		t.Cleanup(func() { _ = r.Close() })
		runners = append(runners, r)
	}
	wep, err := sim.Endpoint(types.WriterID())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Endpoint(types.ReaderID(0))
	if err != nil {
		t.Fatal(err)
	}
	w = &slowEndpoint{Endpoint: wep, delay: delay}
	r = &slowEndpoint{Endpoint: rep, delay: delay}
	st, err = OpenWithEndpoints(cfg, w, []transport.Endpoint{r})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st, w, r, runners
}

// TestBatchTrafficCoalesces drives a wide PutBatch through a store
// whose writer endpoint is slow and checks the fan-out was fused into
// wire.Batch frames rather than sent one frame per message.
func TestBatchTrafficCoalesces(t *testing.T) {
	cfg := core.Config{T: 1, B: 0, Fw: 1, NumReaders: 1,
		RoundTimeout: 50 * time.Millisecond}
	st, slow, _, _ := recordedFleet(t, cfg, time.Millisecond)

	const keys = 32
	puts := make(map[string]types.Value)
	for i := 0; i < keys; i++ {
		puts[fmt.Sprintf("key-%d", i)] = "v"
	}
	if err := st.PutBatch(puts); err != nil {
		t.Fatal(err)
	}

	sent := slow.take()
	frames := len(sent)
	var batched, inner int
	for _, f := range sent {
		if b, ok := f.Msg.(wire.Batch); ok {
			batched++
			inner += len(b.Msgs)
		} else {
			inner++
		}
	}

	if batched == 0 {
		t.Fatalf("%d frames carried %d messages without a single batch", frames, inner)
	}
	if frames >= inner {
		t.Errorf("frames %d, messages %d: coalescing saved nothing", frames, inner)
	}
	// Batching must not change what the store means: every key readable.
	got, err := st.GetBatch(0, keysOf(puts))
	if err != nil {
		t.Fatal(err)
	}
	for k := range puts {
		if got[k].Val != "v" {
			t.Errorf("%s = %+v after batched puts", k, got[k])
		}
	}
}

func keysOf(m map[string]types.Value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestShardOptionPlumbed(t *testing.T) {
	st, err := Open(core.Config{T: 1, B: 0, Fw: 1, NumReaders: 1,
		RoundTimeout: 15 * time.Millisecond}, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Shards() != 3 {
		t.Errorf("Shards() = %d, want 3", st.Shards())
	}
	if err := st.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(0, "k")
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "v" {
		t.Errorf("Get = %+v", got)
	}
	if def, err := Open(core.Config{T: 1, B: 0, Fw: 1, NumReaders: 1}); err != nil {
		t.Fatal(err)
	} else {
		defer def.Close()
		if def.Shards() != DefaultShards() {
			t.Errorf("default Shards() = %d, want %d", def.Shards(), DefaultShards())
		}
	}
}
