package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/node"
	"luckystore/internal/storage"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// orderShard acknowledges keyed READs with the request's tsr and checks,
// in plain unsynchronized state, that every (peer, key) stream is
// stepped in increasing tsr order — the race detector turns any
// overlap of two steps, or a missing happens-before edge between
// consecutive ones, into a failure. It also records which server path
// ran each step.
type orderShard struct {
	mayBlock       bool // wrapped without the NonBlocking marker, and now and then sleeps
	last           map[string]types.ReaderTS
	steps          int
	inline, pooled int
	reordered      []string
}

// fastShard is an orderShard that declares node.NonBlocking.
type fastShard struct{ *orderShard }

func (fastShard) StepNeverBlocks() bool { return true }

func (s *orderShard) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	k := m.(wire.Keyed)
	r := k.Inner.(wire.Read)
	if s.last == nil {
		s.last = make(map[string]types.ReaderTS)
	}
	stream := string(from) + "/" + k.Key
	if r.TSR <= s.last[stream] {
		s.reordered = append(s.reordered, fmt.Sprintf("%s: tsr %d after %d", stream, r.TSR, s.last[stream]))
	}
	s.last[stream] = r.TSR
	s.steps++
	if steppedInline() {
		s.inline++
	} else {
		s.pooled++
	}
	if s.mayBlock && s.steps%10 == 0 {
		time.Sleep(200 * time.Microsecond)
	}
	return append(out, transport.Outgoing{To: from, Msg: wire.Keyed{Key: k.Key, Inner: wire.WAck{Round: 1, Tag: int64(r.TSR)}}})
}

// steppedInline reports whether the current step runs under
// StepPool.TryStep (the connection's read goroutine) rather than on a
// shard worker.
func steppedInline() bool {
	var pcs [24]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "(*StepPool).TryStep") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestShardedInlinePoolTransitionsKeepOrder drives one hot key and many
// keys from several connections through every way a frame can change
// server path — lock-step requests on an idle shard (inline), a shard
// kept busy by other connections, pipelined frames, batch frames, and a
// shard whose automaton may block (always pooled) — switching between
// them over and over, and asserts the contract on both sides of each
// switch: per-(peer,key) FIFO at the automaton, and on the wire exactly
// one reply frame per request frame, in request order, carrying that
// frame's replies in request order.
func TestShardedInlinePoolTransitionsKeepOrder(t *testing.T) {
	const fastShards = 3
	shards := make([]*orderShard, fastShards+1)
	autos := make([]node.Automaton, len(shards))
	for i := range shards {
		shards[i] = &orderShard{mayBlock: i == fastShards}
		autos[i] = shards[i]
		if !shards[i].mayBlock {
			autos[i] = fastShard{shards[i]}
		}
	}
	route := func(m wire.Message) int {
		k, ok := m.(wire.Keyed)
		if !ok {
			return 0
		}
		if strings.HasPrefix(k.Key, "slow") {
			return fastShards
		}
		return int(k.Key[len(k.Key)-1]) % fastShards
	}
	srv, err := ListenSharded(types.ServerID(0), "127.0.0.1:0", autos, route)
	if err != nil {
		t.Fatal(err)
	}

	const conns, rounds = 3, 12
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			peer := types.ReaderID(c)
			conn := dialRaw(t, srv.Addr(), peer)
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(60 * time.Second))

			tsr := make(map[string]types.ReaderTS) // per key, this peer's next tsr
			msg := func(key string) wire.Message {
				tsr[key]++
				return wire.Keyed{Key: key, Inner: wire.Read{TSR: tsr[key], Round: 1}}
			}
			// send writes one request frame and returns what its reply
			// frame must carry.
			send := func(keys ...string) []wire.Message {
				var m wire.Message
				want := make([]wire.Message, len(keys))
				if len(keys) == 1 {
					m = msg(keys[0])
					want[0] = m
				} else {
					b := wire.Batch{}
					for i, key := range keys {
						b.Msgs = append(b.Msgs, msg(key))
						want[i] = b.Msgs[i]
					}
					m = b
				}
				if err := wire.EncodeFrame(conn, wire.Envelope{From: peer, To: types.ServerID(0), Msg: m}); err != nil {
					t.Errorf("conn %d: send: %v", c, err)
				}
				return want
			}
			// expect reads one reply frame and matches it against the
			// request frame that must have produced it.
			expect := func(want []wire.Message) bool {
				reply, err := wire.DecodeFrame(conn)
				if err != nil {
					t.Errorf("conn %d: reply: %v", c, err)
					return false
				}
				got := []wire.Message{reply.Msg}
				if b, ok := reply.Msg.(wire.Batch); ok {
					got = b.Msgs
				}
				if len(got) != len(want) {
					t.Errorf("conn %d: reply frame carries %d messages, its request frame %d", c, len(got), len(want))
					return false
				}
				for i := range want {
					req := want[i].(wire.Keyed)
					ack, ok := got[i].(wire.Keyed)
					if !ok || ack.Key != req.Key || ack.Inner != (wire.WAck{Round: 1, Tag: int64(req.Inner.(wire.Read).TSR)}) {
						t.Errorf("conn %d: reply %d is %+v, want the ack of %+v", c, i, got[i], req)
						return false
					}
				}
				return true
			}
			key := func(i int) string { return fmt.Sprintf("key-%d-%d", c, i%17) }

			for round := 0; round < rounds; round++ {
				// Lock-step on an idle connection: the inline path, unless
				// another connection holds the shard — then the pool.
				for i := 0; i < 15; i++ {
					k := "hot0"
					if i%3 == 1 {
						k = key(round*31 + i)
					}
					if !expect(send(k)) {
						return
					}
				}
				// One lock-step request to the shard that may block.
				if !expect(send("slow")) {
					return
				}
				// Pipelined single-message frames: pooled as soon as the
				// server sees bytes behind a frame or frames in flight, with
				// stragglers of the burst free to go inline again.
				var pending [][]wire.Message
				for i := 0; i < 40; i++ {
					switch {
					case i%4 == 0:
						pending = append(pending, send("hot0"))
					case i%13 == 5:
						pending = append(pending, send("slow"))
					default:
						pending = append(pending, send(key(round*7+i)))
					}
				}
				for _, want := range pending {
					if !expect(want) {
						return
					}
				}
				// Batch frames, repeating a key inside one frame, chased by
				// a single-message frame for the same key.
				pending = pending[:0]
				for i := 0; i < 4; i++ {
					pending = append(pending, send("hot0", key(i), "slow", key(i+1), "hot0", key(i+2)))
					pending = append(pending, send("hot0"))
				}
				for _, want := range pending {
					if !expect(want) {
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if err := srv.Close(); err != nil { // joins every stepping goroutine: the shards are ours to read
		t.Fatal(err)
	}

	var inline, pooled int
	for i, sh := range shards {
		for _, r := range sh.reordered {
			t.Errorf("shard %d stepped out of order: %s", i, r)
		}
		if sh.mayBlock {
			if sh.inline != 0 {
				t.Errorf("the shard that may block was stepped on a read goroutine %d times", sh.inline)
			}
			if sh.pooled == 0 {
				t.Error("the shard that may block was never stepped")
			}
			continue
		}
		inline += sh.inline
		pooled += sh.pooled
	}
	if inline == 0 || pooled == 0 {
		t.Errorf("the schedule did not cross the boundary: %d inline steps, %d pooled", inline, pooled)
	}
	t.Logf("non-blocking shards: %d inline steps, %d pooled", inline, pooled)
}

// gatedBackend is a storage.Backend whose Commit announces itself on
// entered and then returns whatever the test sends on release — or
// fails once over is closed, so a test that stops early can still close
// the server.
type gatedBackend struct {
	storage.Backend
	entered, over chan struct{}
	release       chan error
}

var errTestOver = errors.New("test over")

// CommitSyncs implements storage.Syncing: the backend stands for one
// that writes without fsync, whose commit the test holds open.
func (*gatedBackend) CommitSyncs() bool { return false }

func (b *gatedBackend) Commit() error {
	select {
	case b.entered <- struct{}{}:
	case <-b.over:
		return errTestOver
	}
	select {
	case err := <-b.release:
		return err
	case <-b.over:
		return errTestOver
	}
}

// pathRecorder counts which server path steps it. It does not implement
// node.NonBlocking; inlineRecorder does.
type pathRecorder struct {
	inner          node.Automaton
	inline, pooled int
}

func (r *pathRecorder) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	if steppedInline() {
		r.inline++
	} else {
		r.pooled++
	}
	return r.inner.StepAppend(from, m, out)
}

type inlineRecorder struct{ *pathRecorder }

func (inlineRecorder) StepNeverBlocks() bool { return true }

// A storage.Durable shard around a shard whose step never waits on
// another, over a backend that does not fsync, is stepped on the read
// goroutine, and write-ahead holds there
// exactly as on the pooled path: no reply byte leaves before the commit
// returns, one reply frame leaves after it, and a failed commit mutes
// the server for that frame and every later one.
func TestShardedDurableStepsInlineAndWithholdsReply(t *testing.T) {
	for _, inline := range []bool{true, false} {
		name := "pooled"
		if inline {
			name = "inline"
		}
		t.Run(name, func(t *testing.T) {
			rec := &pathRecorder{inner: kv.NewShardedServerAutomatonInstrumented(1, nil).Shards()[0]}
			var shard node.Automaton = rec
			if inline {
				shard = inlineRecorder{rec}
			}
			back := &gatedBackend{Backend: storage.NewMemory(nil),
				entered: make(chan struct{}), over: make(chan struct{}), release: make(chan error)}
			durable := storage.NewDurable(shard, back, types.ServerID(0))
			srv, err := ListenSharded(types.ServerID(0), "127.0.0.1:0", []node.Automaton{durable}, func(wire.Message) int { return 0 })
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			defer close(back.over) // before Close: no step may still wait on a commit
			conn := dialRaw(t, srv.Addr(), types.WriterID())
			defer conn.Close()

			sendPW := func(ts types.TS) {
				t.Helper()
				pw := wire.PW{TS: ts, PW: types.Tagged{TS: ts, Val: "v"}, W: types.Bottom()}
				env := wire.Envelope{From: types.WriterID(), To: types.ServerID(0), Msg: wire.Keyed{Key: "k", Inner: pw}}
				if err := wire.EncodeFrame(conn, env); err != nil {
					t.Fatal(err)
				}
			}
			// awaitCommit waits for the frame's step to reach its commit and
			// checks which path stepped it: the recorder counted before the
			// commit announced itself.
			awaitCommit := func(steps int) {
				t.Helper()
				select {
				case <-back.entered:
				case <-time.After(5 * time.Second):
					t.Fatal("the step never reached its commit")
				}
				got := rec.pooled
				if inline {
					got = rec.inline
				}
				if got != steps {
					t.Fatalf("%d of %d steps taken on the %s path (inline %d, pooled %d)", got, steps, name, rec.inline, rec.pooled)
				}
			}
			silent := func(when string) {
				t.Helper()
				_ = conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
				var b [1]byte
				n, err := conn.Read(b[:])
				var ne net.Error
				if n > 0 || !errors.As(err, &ne) || !ne.Timeout() {
					t.Fatalf("%s: read %d bytes (%v), want nothing", when, n, err)
				}
			}

			sendPW(1)
			awaitCommit(1)
			silent("before the commit returned")
			back.release <- nil
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			reply, err := wire.DecodeFrame(conn)
			if err != nil {
				t.Fatalf("reply after the commit: %v", err)
			}
			k, isKeyed := reply.Msg.(wire.Keyed)
			if ack, isAck := k.Inner.(wire.PWAck); !isKeyed || k.Key != "k" || !isAck || ack.TS != 1 {
				t.Fatalf("reply %+v, want the PW_ACK of ts 1 for k", reply.Msg)
			}
			silent("after the one reply frame")

			sendPW(2)
			awaitCommit(2)
			back.release <- errors.New("disk gone")
			silent("after a failed commit")
			sendPW(3) // a mute Durable steps nothing and commits nothing
			silent("a frame after the failed commit")
		})
	}
}

// forwardRecorder is a pathRecorder that answers NonBlocking as its
// inner automaton does.
type forwardRecorder struct{ *pathRecorder }

func (r forwardRecorder) StepNeverBlocks() bool {
	nb, ok := r.inner.(node.NonBlocking)
	return ok && nb.StepNeverBlocks()
}

// A single-register server — Listen over a core.Server, as ListenTCP
// runs it — steps a lone frame on the connection's read goroutine: the
// register answers NonBlocking true, so one shard costs no hand-off.
func TestListenSingleRegisterStepsInline(t *testing.T) {
	rec := &pathRecorder{inner: core.NewServer()}
	srv, err := Listen(types.ServerID(0), "127.0.0.1:0", forwardRecorder{rec})
	if err != nil {
		t.Fatal(err)
	}
	conn := dialRaw(t, srv.Addr(), types.ReaderID(0))
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	const frames = 20
	for i := 1; i <= frames; i++ {
		env := wire.Envelope{From: types.ReaderID(0), To: types.ServerID(0), Msg: wire.Read{TSR: types.ReaderTS(i), Round: 1}}
		if err := wire.EncodeFrame(conn, env); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.DecodeFrame(conn); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
	}
	_ = conn.Close()
	_ = srv.Close() // joins every step before the counts are read
	if rec.inline != frames || rec.pooled != 0 {
		t.Errorf("inline %d, pooled %d of %d lone frames — want all inline", rec.inline, rec.pooled, frames)
	}
}
