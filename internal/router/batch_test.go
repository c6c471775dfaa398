package router

import (
	"fmt"
	"sync"
	"testing"

	"luckystore/internal/core"
	"luckystore/internal/keyed"
	"luckystore/internal/kv"
	"luckystore/internal/node"
	"luckystore/internal/ring"
	"luckystore/internal/simnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// countingEndpoint counts the frames sent through it, per destination.
type countingEndpoint struct {
	transport.Endpoint
	mu     sync.Mutex
	frames map[types.ProcID][]int // per destination, the width of each frame
}

func (c *countingEndpoint) Send(to types.ProcID, m wire.Message) error {
	width := 1
	if b, ok := m.(wire.Batch); ok {
		width = len(b.Msgs)
	}
	c.mu.Lock()
	c.frames[to] = append(c.frames[to], width)
	c.mu.Unlock()
	return c.Endpoint.Send(to, m)
}

func (c *countingEndpoint) take() map[types.ProcID][]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.frames
	c.frames = make(map[types.ProcID][]int)
	return out
}

// A router batch over one cluster is that cluster's batch: a lucky round
// of 32 keys is one frame of 32 to each server, both ways of the API.
func TestRouterBatchIsOneFramePerServerPerRound(t *testing.T) {
	cfg := core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1}
	sim, err := simnet.New(append(types.ServerIDs(cfg.S()), types.WriterID(), types.ReaderID(0)))
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
	}
	wep, err := sim.Endpoint(types.WriterID())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Endpoint(types.ReaderID(0))
	if err != nil {
		t.Fatal(err)
	}
	w := &countingEndpoint{Endpoint: wep, frames: make(map[types.ProcID][]int)}
	rd := &countingEndpoint{Endpoint: rep, frames: make(map[types.ProcID][]int)}
	st, err := kv.OpenWithEndpoints(cfg, w, []transport.Endpoint{rd})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Options{Seed: 1, Readers: 1}, map[ring.ClusterID]Backend{ring.ID(0): st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })

	const width = 32
	puts := make(map[string]types.Value, width)
	keys := make([]string, 0, width)
	for i := 0; i < width; i++ {
		key := fmt.Sprintf("key-%02d", i)
		puts[key], keys = "v", append(keys, key)
	}
	want := func(what string, frames map[types.ProcID][]int) {
		t.Helper()
		for _, id := range types.ServerIDs(cfg.S()) {
			if got := frames[id]; len(got) != 1 || got[0] != width {
				t.Errorf("%s: frames to %s carried %v, want one frame of %d", what, id, got, width)
			}
		}
	}
	if err := r.PutBatch(puts); err != nil {
		t.Fatal(err)
	}
	want("PutBatch", w.take())
	got, err := r.GetBatch(0, keys)
	if err != nil {
		t.Fatal(err)
	}
	want("GetBatch", rd.take())
	for _, key := range keys {
		if got[key].Val != "v" {
			t.Errorf("%s = %+v, want v", key, got[key])
		}
	}
}
