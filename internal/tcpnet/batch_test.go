package tcpnet

import (
	"net"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/keyed"
	"luckystore/internal/node"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// TestBatchFrameOverTCP sends one Batch frame carrying reads for three
// keys and expects the server to step each inner message; the replies
// travel back coalesced and the client endpoint surfaces them unwrapped,
// one envelope per key.
func TestBatchFrameOverTCP(t *testing.T) {
	auto := keyed.NewShardedServer(1, func() node.Automaton { return core.NewServer() })
	srv, err := ListenSharded(types.ServerID(0), "127.0.0.1:0", auto.Shards(), auto.Route())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(types.ReaderID(0), map[types.ProcID]string{types.ServerID(0): srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := []string{"a", "b", "c"}
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

// TestBatchRepliesShareOneFrame checks the server side coalesces the
// acknowledgements of one inbound batch into a single outbound frame:
// a raw connection decodes exactly one frame carrying all three acks.
func TestBatchRepliesShareOneFrame(t *testing.T) {
	auto := keyed.NewShardedServer(1, func() node.Automaton { return core.NewServer() })
	srv, err := ListenSharded(types.ServerID(0), "127.0.0.1:0", auto.Shards(), auto.Route())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

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

func dialRaw(t *testing.T, addr string, id types.ProcID) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeHello(conn, id); err != nil {
		t.Fatal(err)
	}
	return conn
}
