package tcpnet

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/drive"
	"luckystore/internal/keyed"
	"luckystore/internal/kv"
	"luckystore/internal/node"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// listenShardedKV brings up one sharded KV server for tests.
func listenShardedKV(t *testing.T, shards int) (*Server, *keyed.ShardedServer) {
	t.Helper()
	auto := kv.NewShardedServerAutomatonInstrumented(shards, nil)
	srv, err := ListenSharded(types.ServerID(0), "127.0.0.1:0", auto.Shards(), auto.Route())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, auto
}

// TestShardedBatchFrameOverTCP is the sharded twin of
// TestBatchFrameOverTCP: one batch frame fans out across shard workers
// and every key's reply comes back, unwrapped, at the client endpoint.
func TestShardedBatchFrameOverTCP(t *testing.T) {
	srv, auto := listenShardedKV(t, 4)

	c, err := Dial(types.ReaderID(0), map[types.ProcID]string{types.ServerID(0): srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	b := wire.Batch{}
	for _, k := range keys {
		b.Msgs = append(b.Msgs, wire.Keyed{Key: k, Inner: wire.Read{TSR: 1, Round: 1}})
	}
	if err := c.Send(types.ServerID(0), b); err != nil {
		t.Fatal(err)
	}

	got := make(map[string]bool)
	for range keys {
		select {
		case env, ok := <-c.Recv():
			if !ok {
				t.Fatal("recv channel closed")
			}
			k, isKeyed := env.Msg.(wire.Keyed)
			if !isKeyed {
				t.Fatalf("client surfaced %T, want unwrapped wire.Keyed", env.Msg)
			}
			if _, isAck := k.Inner.(wire.ReadAck); !isAck {
				t.Fatalf("reply for %q is %T, want ReadAck", k.Key, k.Inner)
			}
			got[k.Key] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out; replies so far: %v", got)
		}
	}
	for _, k := range keys {
		if !got[k] {
			t.Errorf("no reply for key %q", k)
		}
	}
	if n := auto.Regs(); n != len(keys) {
		t.Errorf("server instantiated %d registers, want %d", n, len(keys))
	}
}

// TestShardedBatchRepliesShareOneFrame checks the sharded pipeline
// keeps the reply contract: all replies to one request batch coalesce into a single outbound frame even though the
// steps ran on different shard workers.
func TestShardedBatchRepliesShareOneFrame(t *testing.T) {
	srv, _ := listenShardedKV(t, 4)

	conn := dialRaw(t, srv.Addr(), types.ReaderID(0))
	defer conn.Close()

	b := wire.Batch{}
	for _, k := range []string{"x", "y", "z"} {
		b.Msgs = append(b.Msgs, wire.Keyed{Key: k, Inner: wire.Read{TSR: 1, Round: 1}})
	}
	env := wire.Envelope{From: types.ReaderID(0), To: types.ServerID(0), Msg: b}
	if err := wire.EncodeFrame(conn, env); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.DecodeFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	rb, ok := reply.Msg.(wire.Batch)
	if !ok {
		t.Fatalf("reply frame is %T, want wire.Batch", reply.Msg)
	}
	if len(rb.Msgs) != 3 {
		t.Errorf("reply batch carries %d messages, want 3", len(rb.Msgs))
	}
}

// blockingAutomaton blocks its first step until release closes, then
// acknowledges every step. It stands in for a slow shard.
type blockingAutomaton struct {
	release <-chan struct{}
	once    sync.Once
}

func (a *blockingAutomaton) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	a.once.Do(func() { <-a.release })
	k, _ := m.(wire.Keyed)
	return append(out, transport.Outgoing{To: from, Msg: wire.Keyed{Key: k.Key, Inner: wire.WAck{Round: 1, Tag: 1}}})
}

// signalAutomaton closes stepped on its first step, then acknowledges.
type signalAutomaton struct {
	stepped chan struct{}
	once    sync.Once
}

func (a *signalAutomaton) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	a.once.Do(func() { close(a.stepped) })
	k, _ := m.(wire.Keyed)
	return append(out, transport.Outgoing{To: from, Msg: wire.Keyed{Key: k.Key, Inner: wire.WAck{Round: 1, Tag: 2}}})
}

// TestShardedStepsShardsInParallel proves the pipeline actually steps
// shards concurrently: shard 0 blocks until shard 1 has stepped. Under
// one lock for the whole server (in-order stepping of a single
// connection's messages) this deadlocks; with per-shard workers the
// second message overtakes the first and both replies arrive.
func TestShardedStepsShardsInParallel(t *testing.T) {
	release := make(chan struct{})
	stepped := make(chan struct{})
	shards := []node.Automaton{
		&blockingAutomaton{release: release},
		&signalAutomaton{stepped: stepped},
	}
	route := func(m wire.Message) int {
		if k, ok := m.(wire.Keyed); ok && k.Key == "slow" {
			return 0
		}
		return 1
	}
	srv, err := ListenSharded(types.ServerID(0), "127.0.0.1:0", shards, route)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	go func() {
		// The slow shard unblocks only once the fast shard has stepped —
		// the parallelism under test.
		select {
		case <-stepped:
		case <-time.After(5 * time.Second):
		}
		close(release)
	}()

	conn := dialRaw(t, srv.Addr(), types.WriterID())
	defer conn.Close()
	for _, key := range []string{"slow", "fast"} {
		env := wire.Envelope{From: types.WriterID(), To: types.ServerID(0),
			Msg: wire.Keyed{Key: key, Inner: wire.Read{TSR: 1, Round: 1}}}
		if err := wire.EncodeFrame(conn, env); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(4 * time.Second)
	conn.SetReadDeadline(deadline)
	for i := 0; i < 2; i++ {
		if _, err := wire.DecodeFrame(conn); err != nil {
			t.Fatalf("reply %d: %v (shards did not step in parallel?)", i, err)
		}
	}
}

// gateAutomaton signals entered at its first step and blocks it until
// release closes, then acknowledges every step: a shard whose worker can
// be parked so that what arrives next stays queued.
type gateAutomaton struct {
	entered chan struct{}
	release <-chan struct{}
	once    sync.Once
}

func (a *gateAutomaton) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	a.once.Do(func() {
		close(a.entered)
		<-a.release
	})
	k, _ := m.(wire.Keyed)
	return append(out, transport.Outgoing{To: from, Msg: wire.Keyed{Key: k.Key, Inner: wire.WAck{Round: 1, Tag: 1}}})
}

// TestShardedBatchFrameIsOneJobPerShard pins the server half of a
// batch-native round: a frame of 32 messages is queued as one job per
// shard it touches, not 32, and its replies still come back as one
// frame in request order.
func TestShardedBatchFrameIsOneJobPerShard(t *testing.T) {
	const shards, width = 4, 32
	release := make(chan struct{})
	gates := make([]*gateAutomaton, shards)
	autos := make([]node.Automaton, shards)
	for i := range gates {
		gates[i] = &gateAutomaton{entered: make(chan struct{}), release: release}
		autos[i] = gates[i]
	}
	// Keys are "<shard>-<n>".
	route := func(m wire.Message) int { return int(m.(wire.Keyed).Key[0] - '0') }
	srv, err := ListenSharded(types.ServerID(0), "127.0.0.1:0", autos, route)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := dialRaw(t, srv.Addr(), types.WriterID())
	defer conn.Close()
	send := func(keys ...string) {
		t.Helper()
		var m wire.Message = wire.Keyed{Key: keys[0], Inner: wire.Read{TSR: 1, Round: 1}}
		if len(keys) > 1 {
			b := wire.Batch{}
			for _, k := range keys {
				b.Msgs = append(b.Msgs, wire.Keyed{Key: k, Inner: wire.Read{TSR: 1, Round: 1}})
			}
			m = b
		}
		if err := wire.EncodeFrame(conn, wire.Envelope{From: types.WriterID(), To: types.ServerID(0), Msg: m}); err != nil {
			t.Fatal(err)
		}
	}

	// Park every worker inside a step.
	send("0-park", "1-park", "2-park", "3-park")
	for _, g := range gates {
		<-g.entered
	}
	var keys []string
	for i := 0; i < width; i++ {
		keys = append(keys, fmt.Sprintf("%d-%d", i%shards, i))
	}
	send(keys...)
	// A lone message behind the frame: once it is queued on shard 0, the
	// read loop is done submitting the frame.
	send("0-after")
	deadline := time.Now().Add(5 * time.Second)
	for srv.Pool().QueueLen(0) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the frames never reached the shard queues")
		}
		time.Sleep(time.Millisecond)
	}
	for i, want := range []int{2, 1, 1, 1} {
		if n := srv.Pool().QueueLen(i); n != want {
			t.Errorf("shard %d has %d jobs queued, want %d: a frame is one job per shard", i, n, want)
		}
	}

	close(release)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for _, want := range [][]string{{"0-park", "1-park", "2-park", "3-park"}, keys, {"0-after"}} {
		reply, err := wire.DecodeFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		got := []wire.Message{reply.Msg}
		if b, isBatch := reply.Msg.(wire.Batch); isBatch {
			got = b.Msgs
		}
		if len(got) != len(want) {
			t.Fatalf("reply frame carries %d messages, want %d", len(got), len(want))
		}
		for i, m := range got {
			if k := m.(wire.Keyed).Key; k != want[i] {
				t.Fatalf("reply %d of the frame is for %q, want %q: not in request order", i, k, want[i])
			}
		}
	}
}

// TestShardedReplyOrderPerKey checks per-(peer,key) FIFO: many frames
// for one key come back strictly in request order, even with several
// shard workers running.
func TestShardedReplyOrderPerKey(t *testing.T) {
	srv, _ := listenShardedKV(t, 8)
	conn := dialRaw(t, srv.Addr(), types.ReaderID(0))
	defer conn.Close()

	const n = 100
	for i := 1; i <= n; i++ {
		env := wire.Envelope{From: types.ReaderID(0), To: types.ServerID(0),
			Msg: wire.Keyed{Key: "k", Inner: wire.Read{TSR: types.ReaderTS(i), Round: 1}}}
		if err := wire.EncodeFrame(conn, env); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 1; i <= n; i++ {
		reply, err := wire.DecodeFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		k, ok := reply.Msg.(wire.Keyed)
		if !ok {
			t.Fatalf("reply %d is %T", i, reply.Msg)
		}
		ack, ok := k.Inner.(wire.ReadAck)
		if !ok {
			t.Fatalf("reply %d inner is %T", i, k.Inner)
		}
		if ack.TSR != types.ReaderTS(i) {
			t.Fatalf("reply %d has tsr %d: replies reordered", i, ack.TSR)
		}
	}
}

// TestShardedServerCloseUnderLoad closes the server while clients are
// mid-traffic: Close must join every goroutine (the test hangs
// otherwise) and later frames are simply dropped, like a crash.
func TestShardedServerCloseUnderLoad(t *testing.T) {
	auto := kv.NewShardedServerAutomatonInstrumented(4, nil)
	srv, err := ListenSharded(types.ServerID(0), "127.0.0.1:0", auto.Shards(), auto.Route())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				return // server already gone
			}
			defer conn.Close()
			if err := writeHello(conn, types.ReaderID(c)); err != nil {
				return
			}
			for i := 1; ; i++ {
				env := wire.Envelope{From: types.ReaderID(c), To: types.ServerID(0),
					Msg: wire.Keyed{Key: fmt.Sprintf("k%d", i%17), Inner: wire.Read{TSR: types.ReaderTS(i), Round: 1}}}
				if err := wire.EncodeFrame(conn, env); err != nil {
					return // server gone
				}
			}
		}(c)
	}
	time.Sleep(50 * time.Millisecond)
	// Concurrent Close calls: idempotent, no double-close panic, all
	// return only after teardown.
	var closers sync.WaitGroup
	for i := 0; i < 4; i++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			_ = srv.Close()
		}()
	}
	closers.Wait()
	wg.Wait()
}

// TestShardedEndToEndProtocol runs the real writer and reader clients
// against a sharded server cluster — the full protocol over the
// pipelined path, not just echoes.
func TestShardedEndToEndProtocol(t *testing.T) {
	cfg := core.Config{T: 1, B: 0, Fw: 1, NumReaders: 1,
		RoundTimeout: 50 * time.Millisecond, OpTimeout: 10 * time.Second}
	addrs := make(map[types.ProcID]string, cfg.S())
	for i := 0; i < cfg.S(); i++ {
		auto := kv.NewShardedServerAutomatonInstrumented(4, nil)
		srv, err := ListenSharded(types.ServerID(i), "127.0.0.1:0", auto.Shards(), auto.Route())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[srv.ID()] = srv.Addr()
	}

	wc, err := Dial(types.WriterID(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	wd := keyed.NewDemux(wc) // owns wc
	defer wd.Close()
	wep, err := wd.Subscribe("reg", nil)
	if err != nil {
		t.Fatal(err)
	}
	writer := core.NewWriter(cfg, types.WriterID(), wep)
	if err := runKeyed(wd, wep, writer, func(now time.Time, out *[]transport.Outgoing) (bool, error) {
		return writer.Start(now, "sharded-tcp", out)
	}); err != nil {
		t.Fatal(err)
	}
	if m := writer.LastMeta(); !m.Fast {
		t.Errorf("write meta = %+v, want fast", m)
	}

	rc, err := Dial(types.ReaderID(0), addrs)
	if err != nil {
		t.Fatal(err)
	}
	rd := keyed.NewDemux(rc) // owns rc
	defer rd.Close()
	rep, err := rd.Subscribe("reg", nil)
	if err != nil {
		t.Fatal(err)
	}
	reader := core.NewReader(cfg, types.ReaderID(0), rep)
	if err := runKeyed(rd, rep, reader, reader.Start); err != nil {
		t.Fatal(err)
	}
	if got := reader.LastMeta().Returned; got != (types.Tagged{TS: 1, Val: "sharded-tcp"}) {
		t.Errorf("Read() = %v", got)
	}
}

// keyedTask is a core client's operation as a drive.Task: start begins
// it, and End keeps how it ended.
type keyedTask struct {
	drive.Op
	start func(time.Time, *[]transport.Outgoing) (bool, error)
	err   error
}

func (t *keyedTask) Start(now time.Time, out *[]transport.Outgoing) (bool, error) {
	return t.start(now, out)
}

func (t *keyedTask) End(err error) { t.err = err }

// runKeyed drives one operation of a core client — begun by start — over
// the client's subscription sub of d, on a driver of its own, as kv does.
func runKeyed(d *keyed.Demux, sub *keyed.Sub, op drive.Op, start func(time.Time, *[]transport.Outgoing) (bool, error)) error {
	in, err := d.NewInbox()
	if err != nil {
		return err
	}
	tk := &keyedTask{Op: op, start: start}
	dr := drive.New(in, d, nil)
	dr.Add(tk, sub)
	dr.Run()
	return tk.err
}
