package tcpnet

import (
	"net"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/node"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// listenOne starts a server for one automaton on addr: ListenSharded
// with a single shard, which serializes its steps.
func listenOne(id types.ProcID, addr string, auto node.Automaton) (*Server, error) {
	return ListenSharded(id, addr, []node.Automaton{auto}, func(wire.Message) int { return 0 })
}

// startCluster brings up S core servers on loopback TCP and returns
// their address map.
func startCluster(t *testing.T, s int) map[types.ProcID]string {
	t.Helper()
	addrs := make(map[types.ProcID]string, s)
	for i := 0; i < s; i++ {
		srv, err := listenOne(types.ServerID(i), "127.0.0.1:0", core.NewServer())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[srv.ID()] = srv.Addr()
	}
	return addrs
}

func testCfg() core.Config {
	return core.Config{T: 2, B: 1, Fw: 1, NumReaders: 2,
		RoundTimeout: 50 * time.Millisecond, OpTimeout: 10 * time.Second}
}

func TestListenRejectsNonServerID(t *testing.T) {
	if _, err := listenOne(types.WriterID(), "127.0.0.1:0", core.NewServer()); err == nil {
		t.Error("ListenSharded accepted a writer id")
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(types.ServerID(0), nil); err == nil {
		t.Error("Dial accepted a server id as client")
	}
	if _, err := Dial(types.WriterID(), map[types.ProcID]string{"w": "x"}); err == nil {
		t.Error("Dial accepted a non-server id in the address map")
	}
}

func TestWriteReadOverTCP(t *testing.T) {
	cfg := testCfg()
	addrs := startCluster(t, cfg.S())

	wc, err := Dial(types.WriterID(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	writer := core.NewWriter(cfg, types.WriterID(), wc)
	if err := writer.Write("over-tcp"); err != nil {
		t.Fatal(err)
	}
	if m := writer.LastMeta(); !m.Fast {
		t.Errorf("TCP loopback write meta = %+v, want fast", m)
	}

	rc, err := Dial(types.ReaderID(0), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	reader := core.NewReader(cfg, types.ReaderID(0), rc)
	got, err := reader.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got != (types.Tagged{TS: 1, Val: "over-tcp"}) {
		t.Errorf("Read() = %v", got)
	}
	if m := reader.LastMeta(); !m.Fast() {
		t.Errorf("TCP loopback read meta = %+v, want fast", m)
	}
}

func TestCrashToleranceOverTCP(t *testing.T) {
	cfg := testCfg()
	addrs := startCluster(t, cfg.S())

	wc, err := Dial(types.WriterID(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	writer := core.NewWriter(cfg, types.WriterID(), wc)
	if err := writer.Write("v1"); err != nil {
		t.Fatal(err)
	}

	// Point one server id at a dead address to simulate its crash.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()
	addrs2 := make(map[types.ProcID]string, len(addrs))
	for k, v := range addrs {
		addrs2[k] = v
	}
	addrs2[types.ServerID(0)] = deadAddr

	rc, err := Dial(types.ReaderID(1), addrs2)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	reader := core.NewReader(cfg, types.ReaderID(1), rc)
	got, err := reader.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "v1" {
		t.Errorf("Read() with one dead server = %v", got)
	}
}

func TestServerRejectsServerImpersonation(t *testing.T) {
	srv, err := listenOne(types.ServerID(0), "127.0.0.1:0", core.NewServer())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Hello claiming to be another server must be rejected: the
	// connection is closed without serving.
	if err := writeHello(conn, types.ServerID(3)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("server kept serving a server-impersonating peer")
	}
}

func TestServerSurvivesGarbageConnection(t *testing.T) {
	srv, err := listenOne(types.ServerID(0), "127.0.0.1:0", core.NewServer())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The server still works for legitimate clients.
	cfg := core.Config{T: 0, B: 0, Fw: 0, RoundTimeout: 50 * time.Millisecond, OpTimeout: 5 * time.Second}
	wc, err := Dial(types.WriterID(), map[types.ProcID]string{types.ServerID(0): srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	writer := core.NewWriter(cfg, types.WriterID(), wc)
	if err := writer.Write("still-alive"); err != nil {
		t.Fatalf("server dead after garbage connection: %v", err)
	}
}

func TestClientCloseIdempotent(t *testing.T) {
	addrs := startCluster(t, 1)
	c, err := Dial(types.ReaderID(0), addrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(types.ServerID(0), nil); err == nil {
		t.Error("Send succeeded after Close")
	}
}
