package tcpnet

// Regression (PR 5 satellite): after a server crash-restarts on the
// same address, a client's first Send hits the stale cached connection.
// Send must transparently redial-and-retry once instead of surfacing
// the error, so crash-restart schedules work over TCP.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/node"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// restartServer closes srv and listens again on the same address,
// retrying briefly in case the kernel has not released the port yet.
func restartServer(t *testing.T, srv *Server, auto node.Automaton) *Server {
	t.Helper()
	id, addr := srv.ID(), srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var (
		next *Server
		err  error
	)
	for i := 0; i < 50; i++ {
		next, err = listenOne(id, addr, auto)
		if err == nil {
			return next
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("rebind %s: %v", addr, err)
	return nil
}

func TestSendRedialsAfterServerRestart(t *testing.T) {
	srv, err := listenOne(types.ServerID(0), "127.0.0.1:0", core.NewServer())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(types.WriterID(), map[types.ProcID]string{srv.ID(): srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	send := func(ts types.TS) error {
		return cl.Send(types.ServerID(0), wire.PW{TS: ts, PW: types.Tagged{TS: ts, Val: "v"}, W: types.Bottom()})
	}
	awaitAck := func(within time.Duration) bool {
		select {
		case env, ok := <-cl.Recv():
			return ok && env.Msg.(wire.PWAck).TS > 0
		case <-time.After(within):
			return false
		}
	}

	// Establish the connection.
	if err := send(1); err != nil {
		t.Fatal(err)
	}
	if !awaitAck(2 * time.Second) {
		t.Fatal("no ack before restart")
	}

	// Crash-restart the server on the same address. The client still
	// holds the now-dead connection.
	srv = restartServer(t, srv, core.NewServer())
	defer srv.Close()

	// Sends across the restart must never error: the first write to
	// the dead socket may be silently buffered by TCP, but as soon as
	// the reset surfaces, Send must redial transparently rather than
	// fail. Eventually a send reaches the restarted server and is
	// acked.
	deadline := time.Now().Add(5 * time.Second)
	ts := types.TS(2)
	for time.Now().Before(deadline) {
		if err := send(ts); err != nil {
			t.Fatalf("Send surfaced a stale-connection error: %v", err)
		}
		ts++
		if awaitAck(100 * time.Millisecond) {
			return // reconnected and served
		}
	}
	t.Fatal("restarted server never reachable through the old client")
}

// A restart mid-workload: concurrent senders keep going, none of them
// observes an error, and the server answers again after the restart.
func TestConcurrentSendsSurviveRestart(t *testing.T) {
	srv, err := listenOne(types.ServerID(0), "127.0.0.1:0", core.NewServer())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(types.WriterID(), map[types.ProcID]string{srv.ID(): srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var sendErr error
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ts types.TS = 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := cl.Send(types.ServerID(0), wire.PW{TS: ts, PW: types.Tagged{TS: ts, Val: "v"}, W: types.Bottom()})
				if err != nil && !errors.Is(err, transport.ErrClosed) {
					mu.Lock()
					if sendErr == nil {
						sendErr = err
					}
					mu.Unlock()
					return
				}
				ts++
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Drain acks so nothing blocks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case _, ok := <-cl.Recv():
				if !ok {
					return
				}
			}
		}
	}()

	time.Sleep(100 * time.Millisecond)
	srv = restartServer(t, srv, core.NewServer())
	defer srv.Close()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if sendErr != nil {
		t.Fatalf("a sender observed an error across the restart: %v", sendErr)
	}
}
