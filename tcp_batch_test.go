package luckystore_test

// The batch path's frame-count contract over loopback TCP: a protocol
// round of N keys is one request frame per server, answered by one
// reply frame. These are counts, and they repeat exactly.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"luckystore"
	"luckystore/internal/kv"
	"luckystore/internal/metrics"
)

func TestTCPKVBatchIsOneFramePerServer(t *testing.T) {
	const width = 32
	// Calm, every operation takes one round; the long timer keeps a
	// scheduling hiccup from turning one into three (no verdict waits
	// for it: a round ends early once all S servers answered).
	cfg := luckystore.Config{T: 1, B: 0, Fw: 0, NumReaders: 1, RoundTimeout: 2 * time.Second}
	type serverCounts struct{ frames, replies *metrics.Counter }
	counts := make([]serverCounts, cfg.S())
	addrs := make([]string, cfg.S())
	for i := range counts {
		reg := luckystore.NewMetricsRegistry()
		srv, err := luckystore.ListenTCPKV(i, "127.0.0.1:0", luckystore.WithTCPShards(2), luckystore.WithTCPMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
		counts[i] = serverCounts{
			frames:  reg.Counter("lucky_tcp_frames_in_total", ""),
			replies: reg.Counter("lucky_tcp_replies_total", ""),
		}
	}
	creg := luckystore.NewMetricsRegistry()
	store, err := luckystore.OpenKVTCP(cfg, luckystore.ServerAddrs(addrs), luckystore.WithKVMetrics(creg))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	keys := make([]string, width)
	puts := make(map[string]luckystore.Value, width)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
		puts[keys[i]] = "warm"
	}
	// First use dials every connection and opens every handle.
	if err := store.PutBatch(puts); err != nil {
		t.Fatal(err)
	}
	if _, err := store.GetBatch(0, keys); err != nil {
		t.Fatal(err)
	}

	batches := map[string]func() error{
		"writer": func() error { return store.PutBatch(puts) },
		"reader": func() error { _, err := store.GetBatch(0, keys); return err },
	}
	for role, batch := range batches {
		widths := creg.Histogram("lucky_coalescer_batch_width", "", metrics.L("role", role))
		runs0, msgs0 := widths.Count(), int64(widths.Sum())
		var frames0, replies0 []int64
		for _, c := range counts {
			frames0, replies0 = append(frames0, c.frames.Value()), append(replies0, c.replies.Value())
		}
		if err := batch(); err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if f, r := c.frames.Value()-frames0[i], c.replies.Value()-replies0[i]; f != 1 || r != width {
				t.Errorf("%s batch of %d: server %d decoded %d request frames and sent %d replies, want 1 and %d", role, width, i, f, r, width)
			}
		}
		if runs, msgs := widths.Count()-runs0, int64(widths.Sum())-msgs0; runs != int64(cfg.S()) || msgs != runs*width {
			t.Errorf("%s batch of %d left the coalescer as %d runs carrying %d messages, want %d runs of %d", role, width, runs, msgs, cfg.S(), width)
		}
	}
}

// TestTCPKVBatchesRacingClose: batches in flight when the store closes
// return — ErrClosed for whatever they had not finished — and the
// listen → dial → batch → Close cycle still gives every goroutine back.
func TestTCPKVBatchesRacingClose(t *testing.T) {
	cfg := luckystore.Config{T: 1, B: 0, Fw: 0, NumReaders: 1}
	before := goroutinesSettled()
	servers := make([]*luckystore.TCPServer, cfg.S())
	addrs := make([]string, cfg.S())
	for i := range servers {
		srv, err := luckystore.ListenTCPKV(i, "127.0.0.1:0", luckystore.WithTCPShards(2))
		if err != nil {
			t.Fatal(err)
		}
		servers[i], addrs[i] = srv, srv.Addr()
	}
	store, err := luckystore.OpenKVTCP(cfg, luckystore.ServerAddrs(addrs))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 32)
	puts := make(map[string]luckystore.Value, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
		puts[keys[i]] = "v"
	}
	// Each actor batches until the store closes under it, and reports
	// the error that ended its loop.
	ended := make(chan error, 2)
	started := make(chan struct{}, 2)
	loop := func(batch func() error) {
		var err error
		for i := 0; err == nil; i++ {
			if i == 3 {
				started <- struct{}{}
			}
			err = batch()
		}
		ended <- err
	}
	go loop(func() error { return store.PutBatch(puts) })
	go loop(func() error { _, err := store.GetBatch(0, keys); return err })
	<-started
	<-started
	store.Close()
	for i := 0; i < 2; i++ {
		select {
		case err := <-ended:
			if !errors.Is(err, kv.ErrClosed) {
				t.Errorf("batch racing Close ended with %v, want ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a batch hung on a closed store")
		}
	}
	for _, srv := range servers {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if after := goroutinesAtMost(before); after > before {
		t.Errorf("goroutines: %d before, %d after batches raced Close", before, after)
	}
}
