package tcpnet

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// TestDialToUnreachableServerDoesNotBlockOtherSends is the regression
// test for connFor holding the client-wide mutex across net.Dial: a
// send stuck dialing a blackholed server must not stall sends to live
// servers.
func TestDialToUnreachableServerDoesNotBlockOtherSends(t *testing.T) {
	live, err := listenOne(types.ServerID(1), "127.0.0.1:0", core.NewServer())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	c, err := Dial(types.WriterID(), map[types.ProcID]string{
		types.ServerID(0): "blackhole:0", // never actually dialed — see below
		types.ServerID(1): live.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Blackhole server 0: its dial blocks until the test releases it,
	// deterministically modeling an unreachable address mid-timeout.
	release := make(chan struct{})
	realDial := c.dial
	c.dial = func(addr string) (net.Conn, error) {
		if addr == "blackhole:0" {
			<-release
			return nil, net.ErrClosed
		}
		return realDial(addr)
	}

	stuck := make(chan struct{})
	go func() {
		defer close(stuck)
		_ = c.Send(types.ServerID(0), wire.Read{TSR: 1, Round: 1})
	}()

	// Give the stuck send time to enter the dial, then require a send to
	// the live server to complete while the other dial is still blocked.
	time.Sleep(20 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- c.Send(types.ServerID(1), wire.Read{TSR: 1, Round: 1}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("send to live server failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("send to live server blocked behind the dial to the unreachable one")
	}

	close(release)
	<-stuck
}

// TestDialSingleFlight checks concurrent senders to one destination
// share a single dial instead of racing several connections.
func TestDialSingleFlight(t *testing.T) {
	srv, err := listenOne(types.ServerID(0), "127.0.0.1:0", core.NewServer())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(types.WriterID(), map[types.ProcID]string{types.ServerID(0): srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var dials atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	realDial := c.dial
	c.dial = func(addr string) (net.Conn, error) {
		dials.Add(1)
		close(entered)
		<-release
		return realDial(addr)
	}

	const senders = 8
	done := make(chan error, senders)
	go func() { done <- c.Send(types.ServerID(0), wire.Read{TSR: 1, Round: 1}) }()
	<-entered // the first sender owns the dial; the rest must wait on it
	for i := 1; i < senders; i++ {
		go func() { done <- c.Send(types.ServerID(0), wire.Read{TSR: 1, Round: 1}) }()
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	for i := 0; i < senders; i++ {
		if err := <-done; err != nil {
			t.Errorf("send %d: %v", i, err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("%d dials for one destination, want 1", n)
	}
}

// TestCloseDuringDialClosesNewConn covers the Close-during-dial race:
// a connection that completes dialing after Close must be closed, not
// leaked, and the sender gets ErrClosed.
func TestCloseDuringDialClosesNewConn(t *testing.T) {
	srv, err := listenOne(types.ServerID(0), "127.0.0.1:0", core.NewServer())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(types.WriterID(), map[types.ProcID]string{types.ServerID(0): srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var dialed atomic.Pointer[net.TCPConn]
	realDial := c.dial
	c.dial = func(addr string) (net.Conn, error) {
		close(entered)
		<-release
		conn, err := realDial(addr)
		if err == nil {
			dialed.Store(conn.(*net.TCPConn))
		}
		return conn, err
	}

	sendErr := make(chan error, 1)
	go func() { sendErr <- c.Send(types.ServerID(0), wire.Read{TSR: 1, Round: 1}) }()
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	time.Sleep(20 * time.Millisecond) // let Close reach its wait
	close(release)

	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := <-sendErr; !errors.Is(err, transport.ErrClosed) {
		t.Errorf("send on a client closed mid-dial = %v, want transport.ErrClosed", err)
	}
	conn := dialed.Load()
	if conn == nil {
		t.Fatal("dial never completed")
	}
	// The freshly dialed connection must have been closed by the client:
	// a read errors immediately instead of blocking on the live server.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("connection dialed during Close was left open")
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Error("connection dialed during Close was leaked (read timed out on an open conn)")
	}
}

// TestFailedDialIsHeldDown pins the hold-down: a refused dial answers
// the sends of the next dialHoldDown with its own error instead of
// dialing per send (a protocol client sends to a down server once per
// round), and the first send after it dials again — so a server that
// came back is reached within dialHoldDown.
func TestFailedDialIsHeldDown(t *testing.T) {
	// Reserve an address nobody listens on yet.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c, err := Dial(types.WriterID(), map[types.ProcID]string{types.ServerID(0): addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var dials atomic.Int32
	realDial := c.dial
	c.dial = func(addr string) (net.Conn, error) {
		dials.Add(1)
		return realDial(addr)
	}
	send := func() error { return c.Send(types.ServerID(0), wire.Read{TSR: 1, Round: 1}) }

	start := time.Now()
	first := send()
	if first == nil {
		t.Fatal("send to a closed port succeeded")
	}
	for i := 0; i < 10; i++ {
		if err := send(); err == nil || err.Error() != first.Error() {
			t.Fatalf("held-down send = %v, want the dial's error %v", err, first)
		}
	}
	if n, took := dials.Load(), time.Since(start); n != 1 && took < dialHoldDown {
		t.Errorf("%d dials for 11 sends within %v of a refused one, want 1", n, took)
	}

	// The server comes up: unreachable for at most the rest of the
	// hold-down, then the next send dials and delivers.
	srv, err := listenOne(types.ServerID(0), addr, core.NewServer())
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv.Close()
	time.Sleep(time.Until(start.Add(dialHoldDown)) + 10*time.Millisecond)
	if err := send(); err != nil {
		t.Fatalf("send after the hold-down: %v", err)
	}
	select {
	case env := <-c.Recv():
		if _, ok := env.Msg.(wire.ReadAck); !ok {
			t.Errorf("reply = %T, want ReadAck", env.Msg)
		}
	case <-time.After(2 * time.Second):
		t.Error("no reply from the server that came back")
	}
}
