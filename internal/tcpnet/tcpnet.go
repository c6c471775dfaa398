// Package tcpnet runs the protocol over real TCP connections: servers
// listen, clients dial every server, and envelopes travel as
// length-prefixed binary frames (internal/wire's versioned codec; see
// DESIGN.md §4). The client side implements transport.Endpoint, so the
// writers and readers of every protocol variant work unchanged over
// TCP.
//
// The hot path is allocation- and syscall-frugal: each connection reads
// through a bufio.Reader, server replies accumulate in a bufio.Writer
// flushed once per request frame, the client encodes into a per-
// connection reusable buffer written with one syscall per frame, and
// coalesced batches are encoded directly into that buffer
// (transport.BatchSender) instead of materializing intermediate Batch
// values.
//
// Identity handling matches the model's point-to-point channels: a
// client announces its ProcID in a handshake; the server replies only
// on that connection, and the client stamps every inbound envelope with
// the server identity it dialed — a peer cannot impersonate another
// process (it can still lie about its state, which is the protocol's
// problem, not the transport's).
package tcpnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"luckystore/internal/node"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// handshakeTimeout bounds how long a server waits for a client hello.
const handshakeTimeout = 10 * time.Second

// maxIDLen bounds the handshake identity length.
const maxIDLen = 64

// connBufSize sizes the per-connection read and write buffers. Frames
// on the hot path are tens to hundreds of bytes; 32 KiB amortizes one
// syscall over many frames without pinning real memory per connection.
const connBufSize = 32 << 10

// maxRetainedConnBuf caps the encode buffer a client connection keeps
// between sends; a one-off giant frame should not pin its memory for
// the connection's lifetime.
const maxRetainedConnBuf = 1 << 20

// Server serves an automaton, split into shards stepped under a
// node.StepPool, over TCP (see sharded.go for the connection pipeline).
type Server struct {
	id   types.ProcID
	ln   net.Listener
	pool *node.StepPool
	met  *ServerMetrics // nil when uninstrumented

	connMu    sync.Mutex
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}
}

// ServerOption configures ListenSharded.
type ServerOption func(*Server)

// WithServerMetrics attaches live instrumentation to the server.
func WithServerMetrics(m *ServerMetrics) ServerOption {
	return func(s *Server) { s.met = m }
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// ID returns the server's process id.
func (s *Server) ID() types.ProcID { return s.id }

// Pool returns the server's step pool. The admin surface uses it for
// per-shard queue-depth gauges and for walking live shard state on the
// worker goroutines (StepPool.Do).
func (s *Server) Pool() *node.StepPool { return s.pool }

// Close stops the listener, the step pool and every connection,
// waiting for all server goroutines to exit. It is idempotent and safe
// to call concurrently; every call returns only once teardown has
// completed.
//
// A connection is stopped, not closed: its read side is shut and its
// writes time out, and its own goroutine closes the socket on the way
// out. So a peer sees the connection drop only as the last of the
// server's goroutines exit, just before Close returns, which keeps short
// the time in which a redialing peer finds the address unbound before
// the caller listens on it again.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		err = s.ln.Close()
		s.connMu.Lock()
		for c := range s.conns {
			_ = c.(*net.TCPConn).CloseRead()
			_ = c.SetWriteDeadline(time.Now())
		}
		s.connMu.Unlock()
		s.pool.Close()
		s.wg.Wait()
	})
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.connMu.Lock()
		select {
		case <-s.closed:
			s.connMu.Unlock()
			_ = conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		_ = conn.Close()
	}()

	peer, err := readHello(conn)
	if err != nil || !peer.Valid() || peer.IsServer() {
		return // reject unidentified or server-impersonating peers
	}
	s.servePipelined(conn, peer)
}

// writeReplies frames a step's replies back to the peer: runs of keyed
// replies share Batch frames, encoded straight into a pooled buffer and
// handed to w in one Write (wire.WriteCoalesced applies the same batch
// budgets as wire.CoalesceKeyed).
func writeReplies(w io.Writer, from, to types.ProcID, replies []wire.Message) error {
	return wire.WriteCoalesced(w, from, to, replies)
}

// Client is a transport.Endpoint over TCP: it dials every configured
// server lazily and merges all inbound frames into one mailbox, or hands
// each to the routing function RouteFrames set.
type Client struct {
	id    types.ProcID
	addrs map[types.ProcID]string
	mbox  *transport.Mailbox[wire.Envelope]
	dial  func(addr string) (net.Conn, error) // swappable in tests
	met   *ClientMetrics                      // nil when uninstrumented

	// conns is the established-connection table, copy-on-write: senders
	// read it with one atomic load and no lock; dial, drop and Close
	// replace it under mu. The server set is small and changes only on
	// failures, so the copies are cheap and rare.
	conns atomic.Pointer[map[types.ProcID]*clientConn]

	mu     sync.Mutex
	dials  map[types.ProcID]*dialCall       // dials in flight or failed and held down, one per destination
	route  func(types.ProcID, wire.Message) // RouteFrames's, nil for the mailbox; set before the first dial
	closed bool
	wg     sync.WaitGroup
}

// ClientOption configures Dial.
type ClientOption func(*Client)

// WithClientMetrics attaches live instrumentation to the client.
func WithClientMetrics(m *ClientMetrics) ClientOption {
	return func(c *Client) { c.met = m }
}

type clientConn struct {
	conn net.Conn
	mu   sync.Mutex // serializes frame writes
	buf  []byte     // reusable encode buffer, guarded by mu
}

// write encodes env into the connection's reusable buffer and writes it
// as one frame with a single syscall. Callers hold cc.mu.
func (cc *clientConn) write(env wire.Envelope) error {
	buf, err := wire.AppendFrame(cc.buf[:0], env)
	if err != nil {
		return err
	}
	cc.buf = buf
	_, werr := cc.conn.Write(buf)
	cc.shrink()
	return werr
}

// shrink drops an oversized encode buffer so one giant frame does not
// pin megabytes for the connection's lifetime. Callers hold cc.mu.
func (cc *clientConn) shrink() {
	if cap(cc.buf) > maxRetainedConnBuf {
		cc.buf = nil
	}
}

// dialCall is a single-flight dial to one destination: the first sender
// dials, concurrent senders to the same destination wait on done and
// share the result. Senders to other destinations are never involved —
// c.mu is not held while dialing, so one unreachable server cannot
// stall traffic to live ones.
//
// A failed call stays in the table for dialHoldDown and keeps answering
// senders with its error, as it answered those that arrived while it
// ran: a protocol client broadcasts every round to every server, so a
// down server is otherwise dialed once per round per operation.
type dialCall struct {
	done chan struct{}
	cc   *clientConn
	err  error
	held time.Time // when a failed call stops answering; zero while dialing. Guarded by Client.mu
}

// dialHoldDown is how long a failed dial stands in for the next ones.
// It delays the first frame to a server that came back by at most this
// much, so it stays below the 75 ms after which a client re-sends a starved
// round (round timer + drive.Round's grace): a retransmission always gets a
// dial of its own.
const dialHoldDown = 50 * time.Millisecond

var (
	_ transport.Endpoint    = (*Client)(nil)
	_ transport.BatchSender = (*Client)(nil)
	_ transport.FrameRouter = (*Client)(nil)
)

// Dial creates a client endpoint for the process id, configured with
// the server address map. Connections are established on first send to
// each server.
func Dial(id types.ProcID, servers map[types.ProcID]string, opts ...ClientOption) (*Client, error) {
	if !id.Valid() || id.IsServer() {
		return nil, fmt.Errorf("tcpnet: %q is not a client id", id)
	}
	addrs := make(map[types.ProcID]string, len(servers))
	for sid, addr := range servers {
		if !sid.IsServer() {
			return nil, fmt.Errorf("tcpnet: %q is not a server id", sid)
		}
		addrs[sid] = addr
	}
	c := &Client{
		id:    id,
		addrs: addrs,
		mbox:  transport.NewMailbox[wire.Envelope](),
		dial:  func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
		dials: make(map[types.ProcID]*dialCall),
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// ID implements transport.Endpoint.
func (c *Client) ID() types.ProcID { return c.id }

// Recv implements transport.Endpoint.
func (c *Client) Recv() <-chan wire.Envelope { return c.mbox.Out() }

// RouteFrames implements transport.FrameRouter: each connection's read
// loop hands route the frames it decodes, from the server it dialed. A
// client that has dialed refuses it: its read loops feed the mailbox.
func (c *Client) RouteFrames(route func(from types.ProcID, frame wire.Message)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return transport.ErrClosed
	}
	if c.conns.Load() != nil || len(c.dials) > 0 {
		return errors.New("tcpnet: RouteFrames after the first dial")
	}
	c.route = route
	return nil
}

// established returns the current connection table (nil when empty).
// The map is immutable: setConn replaces it.
func (c *Client) established() map[types.ProcID]*clientConn {
	if p := c.conns.Load(); p != nil {
		return *p
	}
	return nil
}

// setConn publishes a new connection table with to mapped to cc, or
// removed when cc is nil. Callers hold c.mu.
func (c *Client) setConn(to types.ProcID, cc *clientConn) {
	old := c.established()
	next := make(map[types.ProcID]*clientConn, len(old)+1)
	for id, oc := range old {
		next[id] = oc
	}
	if cc != nil {
		next[to] = cc
	} else {
		delete(next, to)
	}
	c.conns.Store(&next)
}

// Send implements transport.Endpoint. Send failures to unreachable
// servers are reported but non-fatal to the protocol: a dead server is
// a crashed server.
//
// A write failure on an established connection triggers one
// transparent redial-and-retry: after a peer crash-restarts on the same
// address, the cached connection is dead and the first write to it
// fails, but the server itself is back — without the retry every
// client would pay one lost message per restart (and only dropConn
// would clean up), which breaks crash-restart schedules over TCP.
// Dial failures are not retried: they mean the server is actually
// down, not that our connection went stale — and they are held down
// (dialCall), so the sends of the next dialHoldDown fail the same way
// without dialing.
func (c *Client) Send(to types.ProcID, m wire.Message) error {
	env := wire.Envelope{From: c.id, To: to, Msg: m}
	retried, err := c.sendOnce(to, env)
	if err != nil && retried {
		c.met.redial()
		_, err = c.sendOnce(to, env)
	}
	return err
}

// sendOnce writes one frame to the cached (or freshly dialed)
// connection. retryable reports whether a failure happened on an
// established connection's write — the stale-connection case worth one
// redial — as opposed to a dial failure.
func (c *Client) sendOnce(to types.ProcID, env wire.Envelope) (retryable bool, err error) {
	cc, err := c.connFor(to)
	if err != nil {
		return false, err
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if err := cc.write(env); err != nil {
		c.dropConn(to, cc)
		return true, fmt.Errorf("tcpnet send to %s: %w", to, err)
	}
	c.met.frameOut()
	return false, nil
}

// SendBatched implements transport.BatchSender: a drained
// per-destination queue is encoded directly into the connection's
// reusable buffer — runs of keyed messages streamed into Batch frames,
// split by the wire package's batch budgets — and every resulting frame
// leaves in a single Write call. The bytes on the wire are identical to
// looping Send over wire.CoalesceKeyed's frames; the savings are the
// intermediate []Message runs, the Batch values, the per-frame encode
// walk, and the per-frame syscalls.
func (c *Client) SendBatched(to types.ProcID, msgs []wire.Message) error {
	if len(msgs) == 0 {
		return nil
	}
	retried, err := c.sendBatchedOnce(to, msgs)
	if err != nil && retried {
		// Same stale-connection redial as Send: the peer may have
		// crash-restarted on its address since this batch's conn was
		// cached.
		c.met.redial()
		_, err = c.sendBatchedOnce(to, msgs)
	}
	return err
}

func (c *Client) sendBatchedOnce(to types.ProcID, msgs []wire.Message) (retryable bool, err error) {
	cc, err := c.connFor(to)
	if err != nil {
		return false, err
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	buf, encErr := wire.AppendCoalesced(cc.buf[:0], c.id, to, msgs)
	cc.buf = buf
	if len(buf) > 0 {
		if _, err := cc.conn.Write(buf); err != nil {
			c.dropConn(to, cc)
			return true, fmt.Errorf("tcpnet send to %s: %w", to, err)
		}
		c.met.frameOut()
	}
	cc.shrink()
	return false, encErr
}

// Close tears down every connection and the mailbox, joining all
// reader goroutines.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := c.established()
	c.conns.Store(nil) // senders now miss, take the slow path and see closed
	c.mu.Unlock()
	for _, cc := range conns {
		_ = cc.conn.Close()
	}
	c.wg.Wait()
	c.mbox.Close()
	return nil
}

// connFor returns the connection to one server, dialing it on first
// use. An established connection is found without taking any lock; the
// mutex guards only dial, drop and Close. The dial itself runs outside
// c.mu behind a per-destination single-flight, so a slow or unreachable
// server only delays senders to that server — sends to live servers
// proceed concurrently.
func (c *Client) connFor(to types.ProcID) (*clientConn, error) {
	if cc, ok := c.established()[to]; ok {
		return cc, nil
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if cc, ok := c.established()[to]; ok {
		c.mu.Unlock()
		return cc, nil // a concurrent dial finished between the two looks
	}
	addr, ok := c.addrs[to]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("tcpnet %s: %w", to, transport.ErrUnknownPeer)
	}
	if call, ok := c.dials[to]; ok && (call.held.IsZero() || time.Now().Before(call.held)) {
		c.mu.Unlock()
		<-call.done
		return call.cc, call.err
	}
	call := &dialCall{done: make(chan struct{})}
	c.dials[to] = call
	c.mu.Unlock()

	call.cc, call.err = c.dialConn(to, addr, call)
	close(call.done)
	return call.cc, call.err
}

// dialConn dials and registers the connection for one destination. It
// owns the destination's dialCall: on success the entry is cleared, on
// failure it is held down, so a failed dial is retried by the first send
// dialHoldDown later.
func (c *Client) dialConn(to types.ProcID, addr string, call *dialCall) (*clientConn, error) {
	conn, err := c.dial(addr)
	if err == nil {
		if herr := writeHello(conn, c.id); herr != nil {
			_ = conn.Close()
			err = fmt.Errorf("tcpnet hello to %s: %w", to, herr)
		}
	} else {
		err = fmt.Errorf("tcpnet dial %s (%s): %w", to, addr, err)
	}

	c.mu.Lock()
	if err != nil {
		call.held = time.Now().Add(dialHoldDown)
		c.mu.Unlock()
		return nil, err
	}
	delete(c.dials, to)
	if c.closed {
		// Close ran while we were dialing: it cannot have seen this
		// connection, so close it here rather than leak it.
		c.mu.Unlock()
		_ = conn.Close()
		return nil, transport.ErrClosed
	}
	cc := &clientConn{conn: conn}
	c.setConn(to, cc)
	c.wg.Add(1) // under c.mu and before closed: never races Close's Wait
	route := c.route
	c.mu.Unlock()
	go c.readLoop(to, cc, route)
	return cc, nil
}

func (c *Client) dropConn(id types.ProcID, cc *clientConn) {
	_ = cc.conn.Close()
	c.mu.Lock()
	if c.established()[id] == cc {
		c.setConn(id, nil)
	}
	c.mu.Unlock()
}

func (c *Client) readLoop(from types.ProcID, cc *clientConn, route func(types.ProcID, wire.Message)) {
	defer c.wg.Done()
	br := bufio.NewReaderSize(cc.conn, connBufSize)
	for {
		env, err := wire.DecodeFrame(br)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				// The server went away (EOF on crash/shutdown) or the
				// stream broke: uncache the connection now so the next
				// send dials fresh instead of writing into a half-closed
				// socket — such a write "succeeds" locally and the
				// message is silently lost, which wedges one-shot
				// operations against a restarted cluster. ErrClosed means
				// our own side tore the connection down (Close or a
				// concurrent dropConn); nothing to uncache.
				c.dropConn(from, cc)
			}
			return
		}
		c.met.frameIn()
		if route != nil {
			route(from, env.Msg) // the server this connection was dialed to
			continue
		}
		// Stamp the authenticated origin — the server this connection
		// was dialed to — and unwrap batch frames at the endpoint
		// boundary, one mailbox entry per inner message.
		env.From, env.To = from, c.id
		msgs := []wire.Message{env.Msg}
		if b, batch := env.Msg.(wire.Batch); batch {
			msgs = b.Msgs
		}
		for _, m := range msgs {
			env.Msg = m
			if c.mbox.Put(env) != nil {
				return
			}
		}
	}
}

// ReadHello reads the client identity announced on a fresh inbound
// connection — the same handshake Server performs. Exported for
// listeners that speak the tcpnet wire protocol without being a
// storage server themselves (the router proxy's virtual servers).
func ReadHello(conn net.Conn) (types.ProcID, error) { return readHello(conn) }

// writeHello announces the client identity: one length byte + the id.
func writeHello(w io.Writer, id types.ProcID) error {
	if len(id) == 0 || len(id) > maxIDLen {
		return fmt.Errorf("tcpnet: bad hello id %q", id)
	}
	buf := append([]byte{byte(len(id))}, id...)
	_, err := w.Write(buf)
	return err
}

// readHello reads the peer identity announced on a fresh connection.
func readHello(conn net.Conn) (types.ProcID, error) {
	if err := conn.SetReadDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return "", err
	}
	defer func() { _ = conn.SetReadDeadline(time.Time{}) }()
	var lenBuf [1]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return "", err
	}
	n := int(lenBuf[0])
	if n == 0 || n > maxIDLen {
		return "", fmt.Errorf("tcpnet: bad hello length %d", n)
	}
	idBuf := make([]byte, n)
	if _, err := io.ReadFull(conn, idBuf); err != nil {
		return "", err
	}
	return types.ProcID(idBuf), nil
}
