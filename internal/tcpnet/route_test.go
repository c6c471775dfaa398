package tcpnet

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/drive"
	"luckystore/internal/keyed"
	"luckystore/internal/kv"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// kvServers starts n sharded KV servers on loopback and returns their
// addresses.
func kvServers(t *testing.T, n int) map[types.ProcID]string {
	t.Helper()
	addrs := make(map[types.ProcID]string, n)
	for i := 0; i < n; i++ {
		auto := kv.NewShardedServerAutomatonInstrumented(2, nil)
		srv, err := ListenSharded(types.ServerID(i), "127.0.0.1:0", auto.Shards(), auto.Route())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addrs[srv.ID()] = srv.Addr()
	}
	return addrs
}

// running counts the goroutines whose stack holds fn.
func running(fn string) int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), fn)
}

// TestFrameRoutingOnlyBeforeTheFirstDial pins when a client takes a
// routing function: before its first send (through a Coalescer too),
// not once it has dialed — its read loops then feed the mailbox — and
// not after Close.
func TestFrameRoutingOnlyBeforeTheFirstDial(t *testing.T) {
	addrs := kvServers(t, 1)
	route := func(types.ProcID, wire.Message) {}

	fresh, err := Dial(types.ReaderID(0), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := transport.NewCoalescer(fresh).RouteFrames(route); err != nil {
		t.Errorf("a fresh client under a Coalescer refused the routing: %v", err)
	}

	dialed, err := Dial(types.ReaderID(0), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	if err := dialed.Send(types.ServerID(0), wire.Keyed{Key: "k", Inner: wire.Read{TSR: 1, Round: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := dialed.RouteFrames(route); err == nil {
		t.Error("a client that has dialed took the routing")
	}

	closed, err := Dial(types.ReaderID(0), addrs)
	if err != nil {
		t.Fatal(err)
	}
	_ = closed.Close()
	if err := closed.RouteFrames(route); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("RouteFrames on a closed client = %v, want ErrClosed", err)
	}
}

// TestFrameRoutingCloseWithRepliesInFlight keeps reads in flight to
// three servers for a key routed to an inbox nobody receives from, and
// closes the demux while the replies still arrive: Close returns with
// every read loop and the inbox's overflow drainer joined, so no routing
// is left to put a reply into the closed inbox, which refuses one.
func TestFrameRoutingCloseWithRepliesInFlight(t *testing.T) {
	addrs := kvServers(t, 3)
	loops, drainers := running("(*Client).readLoop("), running("Mailbox[...]).drain(")
	c, err := Dial(types.ReaderID(0), addrs)
	if err != nil {
		t.Fatal(err)
	}
	d := keyed.NewDemux(c) // owns c
	sub, err := d.Subscribe("k", nil)
	if err != nil {
		t.Fatal(err)
	}
	in, err := d.NewInbox()
	if err != nil {
		t.Fatal(err)
	}
	sub.Route(in, 0)
	sent := make(chan error, 1)
	go func() { // requests in flight until the client closes
		for tsr := types.ReaderTS(1); ; tsr++ {
			for i := 0; i < len(addrs); i++ {
				if err := sub.Send(types.ServerID(i), wire.Read{TSR: tsr, Round: 1}); err != nil {
					sent <- err
					return
				}
			}
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); in.Len() < 300; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d replies routed", in.Len())
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if n := running("(*Client).readLoop("); n > loops {
		t.Errorf("%d read loops left after Close", n-loops)
	}
	if n := running("Mailbox[...]).drain("); n > drainers {
		t.Errorf("%d mailbox drainers left after Close", n-drainers)
	}
	if err := in.Put(drive.NewReplies()); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Put on a closed inbox = %v, want ErrClosed", err)
	}
	if err := <-sent; !errors.Is(err, transport.ErrClosed) {
		t.Errorf("the sender stopped on %v, want ErrClosed", err)
	}
}

// forwardingEndpoint decorates a client endpoint as the benchmark's
// traced endpoint does: it forwards sends, batched sends and flushes, and
// a goroutine of its own carries the inner endpoint's replies on to its
// Recv, counting them. It does not forward transport.FrameRouter.
type forwardingEndpoint struct {
	inner   transport.Endpoint
	out     chan wire.Envelope
	done    chan struct{}
	replies atomic.Int64
}

var (
	_ transport.BatchSender = (*forwardingEndpoint)(nil)
	_ transport.Flusher     = (*forwardingEndpoint)(nil)
)

func forwarding(inner transport.Endpoint) *forwardingEndpoint {
	e := &forwardingEndpoint{inner: inner, out: make(chan wire.Envelope, 128), done: make(chan struct{})}
	go func() {
		defer close(e.done)
		defer close(e.out)
		for env := range inner.Recv() {
			e.replies.Add(1)
			e.out <- env
		}
	}()
	return e
}

func (e *forwardingEndpoint) ID() types.ProcID           { return e.inner.ID() }
func (e *forwardingEndpoint) Recv() <-chan wire.Envelope { return e.out }
func (e *forwardingEndpoint) Send(to types.ProcID, m wire.Message) error {
	return e.inner.Send(to, m)
}
func (e *forwardingEndpoint) SendBatched(to types.ProcID, msgs []wire.Message) error {
	return e.inner.(transport.BatchSender).SendBatched(to, msgs)
}
func (e *forwardingEndpoint) Flush() error { return nil }
func (e *forwardingEndpoint) Close() error {
	err := e.inner.Close()
	<-e.done
	return err
}

// TestFrameRoutingBehindADecoratorTakesThePump runs a 32-key PutBatch
// and GetBatch on a store whose endpoints are clients behind a
// forwarding decorator, and on one over the bare clients. Behind the
// decorator the clients never get a routing function, and every reply
// reaches the store through the decorator's Recv and the demux's pump;
// over the bare clients the read loops route, and no reply enters a
// client's mailbox.
func TestFrameRoutingBehindADecoratorTakesThePump(t *testing.T) {
	cfg := core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1,
		RoundTimeout: 50 * time.Millisecond, OpTimeout: 10 * time.Second}
	addrs := kvServers(t, cfg.S())
	const width = 32
	puts, keys := make(map[string]types.Value, width), make([]string, width)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
		puts[keys[i]] = types.Value("v-" + keys[i])
	}
	for _, decorated := range []bool{true, false} {
		t.Run(fmt.Sprintf("decorated=%v", decorated), func(t *testing.T) {
			var clients [2]*Client
			var eps [2]transport.Endpoint
			var fwd [2]*forwardingEndpoint
			for i, id := range []types.ProcID{types.WriterID(), types.ReaderID(0)} {
				c, err := Dial(id, addrs)
				if err != nil {
					t.Fatal(err)
				}
				clients[i], eps[i] = c, c
				if decorated {
					fwd[i] = forwarding(c)
					eps[i] = fwd[i]
				}
			}
			st, err := kv.OpenWithEndpoints(cfg, eps[0], eps[1:])
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := st.PutBatch(puts); err != nil {
				t.Fatal(err)
			}
			got, err := st.GetBatch(0, keys)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if got[k].Val != puts[k] {
					t.Fatalf("GetBatch[%s] = %v, want %q", k, got[k], puts[k])
				}
			}
			for i, c := range clients {
				c.mu.Lock()
				routed := c.route != nil
				c.mu.Unlock()
				if routed == decorated {
					t.Errorf("client %s: routing function set = %v", c.ID(), routed)
				}
				if decorated {
					if n := fwd[i].replies.Load(); n < int64(cfg.S()*width) {
						t.Errorf("client %s: %d replies through the decorator, want at least %d", c.ID(), n, cfg.S()*width)
					}
				} else if n := c.mbox.Len(); n != 0 {
					t.Errorf("client %s: %d replies in the mailbox of a routing client", c.ID(), n)
				}
			}
		})
	}
}
