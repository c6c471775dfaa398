package tcpnet

import (
	"io"
	"time"

	"luckystore/internal/node"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// Loopback is a server fleet's transport on loopback TCP (a
// core.Transport): every server on its own ListenSharded listener,
// mapped by identity to the address it listens on, which Dial takes. A
// server's first listener picks a free port; a restart re-binds that
// address, retrying for a second while the kernel releases the port,
// so clients that dialed it reach the restarted process.
type Loopback map[types.ProcID]string

// Serve starts server i's listener; its Close is the server's crash.
func (l Loopback) Serve(i int, shards []node.Automaton, route func(wire.Message) int) (io.Closer, error) {
	id := types.ServerID(i)
	addr, rebind := l[id]
	if !rebind {
		addr = "127.0.0.1:0"
	}
	for attempt := 1; ; attempt++ {
		srv, err := ListenSharded(id, addr, shards, route)
		if err == nil {
			l[id] = srv.Addr()
			return srv, nil
		}
		if !rebind || attempt == 100 {
			return nil, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Close releases nothing: the listeners are the processes.
func (Loopback) Close() error { return nil }
