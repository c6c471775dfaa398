package keyed

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

func TestShardIndexStableAndInRange(t *testing.T) {
	for n := 1; n <= 16; n *= 2 {
		for i := 0; i < 100; i++ {
			key := fmt.Sprintf("key-%d", i)
			idx := ShardIndex(key, n)
			if idx < 0 || idx >= n {
				t.Fatalf("ShardIndex(%q, %d) = %d out of range", key, n, idx)
			}
			if again := ShardIndex(key, n); again != idx {
				t.Fatalf("ShardIndex(%q, %d) unstable: %d then %d", key, n, idx, again)
			}
		}
	}
}

func TestShardIndexSpreadsKeys(t *testing.T) {
	const n, keys = 8, 1000
	hit := make([]int, n)
	for i := 0; i < keys; i++ {
		hit[ShardIndex(fmt.Sprintf("key-%d", i), n)]++
	}
	for s, c := range hit {
		// A uniform hash puts ~125 keys per shard; an empty or wildly
		// overloaded shard means the hash is broken.
		if c < keys/n/4 || c > keys/n*4 {
			t.Errorf("shard %d holds %d of %d keys — skewed distribution %v", s, c, keys, hit)
		}
	}
}

func TestShardedServerRoutesKeysToOwningShard(t *testing.T) {
	const n = 4
	s := NewShardedServer(n, coreFactory)
	shards := s.Shards()
	route := s.Route()
	pw := wire.PW{TS: 1, PW: types.Tagged{TS: 1, Val: "v"}, W: types.Bottom()}

	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%d", i)
		m := wire.Keyed{Key: key, Inner: pw}
		idx := route(m)
		if idx != ShardIndex(key, n) {
			t.Fatalf("Route(%q) = %d, want %d", key, idx, ShardIndex(key, n))
		}
		out := shards[idx].StepAppend(types.WriterID(), m, nil)
		if len(out) != 1 {
			t.Fatalf("shard %d ignored %q", idx, key)
		}
		k := out[0].Msg.(wire.Keyed)
		if k.Key != key {
			t.Errorf("reply keyed to %q, want %q", k.Key, key)
		}
		if _, ok := k.Inner.(wire.PWAck); !ok {
			t.Errorf("inner reply = %T, want PWAck", k.Inner)
		}
	}
	if s.Regs() != 20 {
		t.Errorf("Regs() = %d, want 20", s.Regs())
	}
}

func TestShardedServerKeysIndependent(t *testing.T) {
	s := NewShardedServer(4, coreFactory)
	shards := s.Shards()
	route := s.Route()

	write := wire.Keyed{Key: "written", Inner: wire.PW{TS: 1, PW: types.Tagged{TS: 1, Val: "v"}, W: types.Bottom()}}
	shards[route(write)].StepAppend(types.WriterID(), write, nil)

	read := wire.Keyed{Key: "fresh", Inner: wire.Read{TSR: 1, Round: 1}}
	out := shards[route(read)].StepAppend(types.ReaderID(0), read, nil)
	ack := out[0].Msg.(wire.Keyed).Inner.(wire.ReadAck)
	if !ack.PW.IsBottom() {
		t.Errorf("fresh register contaminated: %+v", ack)
	}

	readBack := wire.Keyed{Key: "written", Inner: wire.Read{TSR: 1, Round: 1}}
	out = shards[route(readBack)].StepAppend(types.ReaderID(0), readBack, nil)
	ack = out[0].Msg.(wire.Keyed).Inner.(wire.ReadAck)
	if ack.PW != (types.Tagged{TS: 1, Val: "v"}) {
		t.Errorf("written register lost its value: %+v", ack)
	}
}

func TestShardedServerDropsUnkeyedAndMalformed(t *testing.T) {
	s := NewShardedServer(2, coreFactory)
	shards := s.Shards()
	route := s.Route()

	unkeyed := wire.PW{TS: 1, PW: types.Tagged{TS: 1, Val: "a"}, W: types.Bottom()}
	if idx := route(unkeyed); idx != 0 {
		t.Errorf("Route(unkeyed) = %d, want 0", idx)
	}
	if out := shards[0].StepAppend(types.WriterID(), unkeyed, nil); out != nil {
		t.Error("unkeyed message answered")
	}
	bad := wire.Keyed{Key: "", Inner: wire.ABDRead{}}
	if out := shards[route(bad)].StepAppend(types.WriterID(), bad, nil); out != nil {
		t.Error("empty key answered")
	}
	if s.Regs() != 0 {
		t.Errorf("Regs() = %d after garbage, want 0", s.Regs())
	}
}

func TestShardedServerSingleShardFloor(t *testing.T) {
	s := NewShardedServer(0, coreFactory)
	if got := len(s.Shards()); got != 1 {
		t.Errorf("NewShardedServer(0) has %d shards, want floor of 1", got)
	}
}

// TestShardedConcurrentMultiKeyTraffic drives many keys through one
// sharded server set from concurrent per-key writer goroutines — the
// shard workers of every server interleave freely, and with -race this
// verifies exclusive shard ownership holds under fire.
func TestShardedConcurrentMultiKeyTraffic(t *testing.T) {
	cfg := core.Config{T: 1, B: 0, Fw: 1, NumReaders: 1, RoundTimeout: 20 * time.Millisecond}
	ids := append(types.ServerIDs(cfg.S()), types.WriterID(), types.ReaderID(0))
	net, err := simnet.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	servers := make([]*ShardedServer, cfg.S())
	runners := make([]*node.Runner, cfg.S())
	for i := 0; i < cfg.S(); i++ {
		ep, err := net.Endpoint(types.ServerID(i))
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = NewShardedServer(4, coreFactory)
		runners[i] = node.NewShardedRunner(ep, servers[i].Shards(), servers[i].Route())
		runners[i].Start()
	}
	defer func() {
		for _, r := range runners {
			r.Close()
		}
	}()

	wep, err := net.Endpoint(types.WriterID())
	if err != nil {
		t.Fatal(err)
	}
	wd := NewDemux(wep)
	defer wd.Close()

	const keys, writesPerKey = 12, 8
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		sub := subscribe(t, wd, key)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := core.NewWriter(cfg, types.WriterID(), sub)
			for i := 1; i <= writesPerKey; i++ {
				v := types.Value(fmt.Sprintf("v%d", i))
				if err := run(wd, sub, w, write(w, v)); err != nil {
					t.Errorf("write %s #%d: %v", key, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	for i, s := range servers {
		if got := s.Regs(); got != keys {
			t.Errorf("server %d instantiated %d registers, want %d", i, got, keys)
		}
	}

	rep, err := net.Endpoint(types.ReaderID(0))
	if err != nil {
		t.Fatal(err)
	}
	rd := NewDemux(rep)
	defer rd.Close()
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		sub := subscribe(t, rd, key)
		r := core.NewReader(cfg, types.ReaderID(0), sub)
		if err := run(rd, sub, r, r.Start); err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		got := r.LastMeta().Returned
		want := types.Tagged{TS: writesPerKey, Val: types.Value(fmt.Sprintf("v%d", writesPerKey))}
		if got != want {
			t.Errorf("%s = %+v, want %+v", key, got, want)
		}
	}
}

// TestEndToEndSharded runs a full write/read pair per key through a
// ShardedServer driven by a node.Runner over simnet, with the
// client side demultiplexed — the exact stack kv.Open assembles.
func TestEndToEndSharded(t *testing.T) {
	cfg := core.Config{T: 1, B: 0, Fw: 1, NumReaders: 1, RoundTimeout: 20 * time.Millisecond}
	ids := append(types.ServerIDs(cfg.S()), types.WriterID(), types.ReaderID(0))
	net, err := simnet.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	runners := make([]*node.Runner, cfg.S())
	for i := 0; i < cfg.S(); i++ {
		ep, err := net.Endpoint(types.ServerID(i))
		if err != nil {
			t.Fatal(err)
		}
		srv := NewShardedServer(4, coreFactory)
		runners[i] = node.NewShardedRunner(ep, srv.Shards(), srv.Route())
		runners[i].Start()
	}
	defer func() {
		for _, r := range runners {
			r.Close()
		}
	}()

	wep, err := net.Endpoint(types.WriterID())
	if err != nil {
		t.Fatal(err)
	}
	wd := NewDemux(wep)
	defer wd.Close()
	rep, err := net.Endpoint(types.ReaderID(0))
	if err != nil {
		t.Fatal(err)
	}
	rd := NewDemux(rep)
	defer rd.Close()

	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("key-%d", i)
		wsub := subscribe(t, wd, key)
		w := core.NewWriter(cfg, types.WriterID(), wsub)
		if err := run(wd, wsub, w, write(w, types.Value("v-"+key))); err != nil {
			t.Fatalf("write %s: %v", key, err)
		}
		rsub := subscribe(t, rd, key)
		r := core.NewReader(cfg, types.ReaderID(0), rsub)
		if err := run(rd, rsub, r, r.Start); err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		got := r.LastMeta().Returned
		if got != (types.Tagged{TS: 1, Val: types.Value("v-" + key)}) {
			t.Errorf("%s = %+v", key, got)
		}
	}
}

// TestShardedSnapshotIndependentOfShardCount pins that a snapshot walks
// keys in sorted order across every shard: the same registers snapshot
// to the same records on one shard or many, so a log compacted by a
// one-shard storage automaton replays into a server of any width.
func TestShardedSnapshotIndependentOfShardCount(t *testing.T) {
	type record struct {
		from types.ProcID
		m    wire.Message
	}
	snapshot := func(n int) []record {
		s := NewShardedServer(n, coreFactory)
		for i, key := range []string{"m", "b", "z", "a", "k", "q"} {
			pw := wire.PW{TS: types.TS(i + 1), PW: types.Tagged{TS: types.TS(i + 1), Val: types.Value(key)}, W: types.Bottom()}
			s.StepAppend(types.WriterID(), wire.Keyed{Key: key, Inner: pw}, nil)
		}
		var recs []record
		if err := s.SnapshotRecords(func(from types.ProcID, m wire.Message) error {
			recs = append(recs, record{from, m})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	one, four := snapshot(1), snapshot(4)
	if len(one) == 0 || !reflect.DeepEqual(one, four) {
		t.Fatalf("snapshot on 1 shard %+v, on 4 shards %+v", one, four)
	}
	for i := 1; i < len(one); i++ {
		if prev, cur := one[i-1].m.(wire.Keyed).Key, one[i].m.(wire.Keyed).Key; prev > cur {
			t.Fatalf("record %d: key %q after %q", i, cur, prev)
		}
	}
}
