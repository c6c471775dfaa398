package main

import (
	"sync"
	"sync/atomic"
	"time"

	"luckystore"
	"luckystore/internal/kv"
	"luckystore/internal/metrics"
	"luckystore/internal/node"
	"luckystore/internal/storage"
	"luckystore/internal/tcpnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// The traced run records spans from outside the program, at the three
// interface seams ListenTCPKV/OpenKVTCP already have:
//
//	transport.Endpoint  between kv.OpenWithEndpoints and tcpnet.Dial
//	node.Automaton      around each shard handed to tcpnet.ListenSharded
//	storage.Backend     around storage.NewFile
//
// Every span names the message it belongs to — (client, key, stamp,
// phase, server) — which is what spans.go joins an operation's tree on.
// Spans stay in memory until the run ends.

const (
	clientWriter = 0
	clientReader = 1
)

// Phases number an operation's round trips: the PW round, W rounds
// 1..3 (a writer uses 2 and 3, a reader's write-back 1..3), READ rounds
// from phRead0+1.
const (
	phPW    = 0
	phW0    = 0 // W round r is phase phW0+r
	phRead0 = 3 // READ round r is phase phRead0+r
)

// msgSpan is one timed call (a send, or with t0 == t1 an arrival) about
// one message. It holds no pointers, so a few million of them cost the
// garbage collector nothing to scan.
type msgSpan struct {
	t0, t1 int64 // ns since the tracer's epoch
	stamp  int64
	key    uint16
	phase  uint8
	server uint8
}

// stepSpan is one automaton step, with the WAL time spent inside it.
type stepSpan struct {
	t0, t1    int64
	stamp     int64
	walAppend int64 // ns inside Backend.Append during this step
	walCommit int64 // ns inside Backend.Commit during this step
	key       uint16
	phase     uint8
	client    uint8
}

// classify names the message m is about. Unkeyed traffic and keys the
// benchmark did not generate are not traced.
func classify(m wire.Message) (key uint16, stamp int64, phase uint8, ok bool) {
	k, isKeyed := m.(wire.Keyed)
	if !isKeyed {
		return 0, 0, 0, false
	}
	idx, isOurs := keyIndex(k.Key)
	if !isOurs {
		return 0, 0, 0, false
	}
	round := 0
	switch in := k.Inner.(type) {
	case wire.PW:
		return uint16(idx), int64(in.TS), phPW, true
	case wire.PWAck:
		return uint16(idx), int64(in.TS), phPW, true
	case wire.W:
		stamp, round = in.Tag, phW0+in.Round
	case wire.WAck:
		stamp, round = in.Tag, phW0+in.Round
	case wire.Read:
		stamp, round = int64(in.TSR), phRead0+in.Round
	case wire.ReadAck:
		stamp, round = int64(in.TSR), phRead0+in.Round
	default:
		return 0, 0, 0, false
	}
	return uint16(idx), stamp, uint8(min(round, 255)), true
}

func clientIndex(id types.ProcID) uint8 {
	if id.IsWriter() {
		return clientWriter
	}
	return clientReader
}

// tracer owns every span buffer of one traced fleet.
type tracer struct {
	epoch time.Time
	on    atomic.Bool // spans are recorded only inside the traced window
	reg   *metrics.Registry

	mu      sync.Mutex // guards the two lists while the fleet is assembled
	clients []*tracedEndpoint
	shards  []*shardTrace
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), reg: metrics.NewRegistry()}
}

func (t *tracer) now() int64            { return int64(time.Since(t.epoch)) }
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// tracedEndpoint decorates a client endpoint: it times every Send and
// SendBatched call (client.send) and stamps every reply's arrival. It
// forwards the optional BatchSender and Flusher capabilities, so the
// Coalescer above it keeps its direct-encode fast path.
type tracedEndpoint struct {
	inner  transport.Endpoint
	batch  transport.BatchSender // inner's, nil if unsupported
	flush  transport.Flusher     // inner's, nil if unsupported
	tr     *tracer
	client uint8

	// out carries replies on to the store. Buffered for one batch's worth
	// of replies (S servers × batchSize keys, rounded up) so the stamping
	// goroutine does not wait on the demultiplexer for each envelope.
	out  chan wire.Envelope
	done chan struct{}

	mu       sync.Mutex // the Coalescer's flusher is the only sender, but that is its contract, not ours
	sends    []msgSpan
	scratch  []byte
	reqBytes int64 // request frame bytes, re-encoded exactly as tcpnet frames them

	// owned by the forward goroutine until done closes
	recvs      []msgSpan
	replyBytes int64 // reply bytes, each envelope framed on its own (batched replies share a header on the wire)
	recvBuf    []byte
}

var (
	_ transport.Endpoint    = (*tracedEndpoint)(nil)
	_ transport.BatchSender = (*tracedEndpoint)(nil)
	_ transport.Flusher     = (*tracedEndpoint)(nil)
)

func (t *tracer) endpoint(inner transport.Endpoint) *tracedEndpoint {
	e := &tracedEndpoint{
		inner: inner, tr: t, client: clientIndex(inner.ID()),
		out:  make(chan wire.Envelope, 128),
		done: make(chan struct{}),
	}
	e.batch, _ = inner.(transport.BatchSender)
	e.flush, _ = inner.(transport.Flusher)
	t.mu.Lock()
	t.clients = append(t.clients, e)
	t.mu.Unlock()
	go e.forward()
	return e
}

func (e *tracedEndpoint) ID() types.ProcID           { return e.inner.ID() }
func (e *tracedEndpoint) Recv() <-chan wire.Envelope { return e.out }

// Close closes the inner endpoint, which ends the forward goroutine,
// and waits for it.
func (e *tracedEndpoint) Close() error {
	err := e.inner.Close()
	<-e.done
	return err
}

func (e *tracedEndpoint) Flush() error {
	if e.flush != nil {
		return e.flush.Flush()
	}
	return nil // the inner endpoint buffers nothing
}

func (e *tracedEndpoint) Send(to types.ProcID, m wire.Message) error {
	if !e.tr.on.Load() {
		return e.inner.Send(to, m)
	}
	t0 := e.tr.now()
	err := e.inner.Send(to, m)
	t1 := e.tr.now()
	e.mu.Lock()
	e.record(to, m, t0, t1)
	e.scratch, _ = wire.AppendFrame(e.scratch[:0], wire.Envelope{From: e.inner.ID(), To: to, Msg: m})
	e.reqBytes += int64(len(e.scratch))
	e.mu.Unlock()
	return err
}

func (e *tracedEndpoint) SendBatched(to types.ProcID, msgs []wire.Message) error {
	if e.batch == nil {
		// Same frames the Coalescer's generic path would produce.
		var first error
		for _, m := range wire.CoalesceKeyed(msgs) {
			if err := e.Send(to, m); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	if !e.tr.on.Load() {
		return e.batch.SendBatched(to, msgs)
	}
	t0 := e.tr.now()
	err := e.batch.SendBatched(to, msgs)
	t1 := e.tr.now()
	e.mu.Lock()
	for _, m := range msgs {
		e.record(to, m, t0, t1)
	}
	e.scratch, _ = wire.AppendCoalesced(e.scratch[:0], e.inner.ID(), to, msgs)
	e.reqBytes += int64(len(e.scratch))
	e.mu.Unlock()
	return err
}

// record appends one send span; callers hold e.mu.
func (e *tracedEndpoint) record(to types.ProcID, m wire.Message, t0, t1 int64) {
	if key, stamp, phase, ok := classify(m); ok {
		e.sends = append(e.sends, msgSpan{t0: t0, t1: t1, stamp: stamp, key: key, phase: phase, server: uint8(to.Index())})
	}
}

func (e *tracedEndpoint) forward() {
	defer close(e.done)
	defer close(e.out)
	for env := range e.inner.Recv() {
		if e.tr.on.Load() {
			now := e.tr.now()
			if key, stamp, phase, ok := classify(env.Msg); ok {
				e.recvs = append(e.recvs, msgSpan{t0: now, t1: now, stamp: stamp, key: key, phase: phase, server: uint8(env.From.Index())})
			}
			e.recvBuf, _ = wire.AppendFrame(e.recvBuf[:0], env)
			e.replyBytes += int64(len(e.recvBuf))
		}
		e.out <- env
	}
}

// shardTrace collects one shard worker's step spans. The worker is the
// only goroutine that steps the shard, and the Durable inside calls the
// backend synchronously from that step, so the automaton and backend
// decorators of one shard share this struct without a lock.
type shardTrace struct {
	tr     *tracer
	server uint8
	steps  []stepSpan
	// WAL time of the step in progress, added to by tracedBackend.
	curAppend, curCommit int64
}

func (t *tracer) shard(server int) *shardTrace {
	st := &shardTrace{tr: t, server: uint8(server)}
	t.mu.Lock()
	t.shards = append(t.shards, st)
	t.mu.Unlock()
	return st
}

// tracedAutomaton decorates one shard (bare, or wrapped in a
// storage.Durable): each step is a server.step span. It implements
// node.AppendStepper, so drivers keep the allocation-free step path.
type tracedAutomaton struct {
	inner node.Automaton
	st    *shardTrace
}

var (
	_ node.Automaton     = (*tracedAutomaton)(nil)
	_ node.AppendStepper = (*tracedAutomaton)(nil)
)

func (a *tracedAutomaton) Step(from types.ProcID, m wire.Message) []transport.Outgoing {
	return a.StepAppend(from, m, nil)
}

func (a *tracedAutomaton) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	if !a.st.tr.on.Load() {
		return node.StepInto(a.inner, from, m, out)
	}
	a.st.curAppend, a.st.curCommit = 0, 0
	t0 := a.st.tr.now()
	out = node.StepInto(a.inner, from, m, out)
	t1 := a.st.tr.now()
	if key, stamp, phase, ok := classify(m); ok {
		a.st.steps = append(a.st.steps, stepSpan{
			t0: t0, t1: t1, stamp: stamp, walAppend: a.st.curAppend, walCommit: a.st.curCommit,
			key: key, phase: phase, client: clientIndex(from),
		})
	}
	return out
}

// tracedBackend decorates the server's one storage.File for one shard:
// Append and Commit durations (wal.append, wal.commit) are charged to
// the step in progress on that shard.
type tracedBackend struct {
	storage.Backend
	st *shardTrace
}

func (b tracedBackend) Append(p []byte) error {
	t0 := b.st.tr.now()
	err := b.Backend.Append(p)
	b.st.curAppend += b.st.tr.now() - t0
	return err
}

func (b tracedBackend) Commit() error {
	t0 := b.st.tr.now()
	err := b.Backend.Commit()
	b.st.curCommit += b.st.tr.now() - t0
	return err
}

// openTraced is luckystore.OpenKVTCP with WithKVMetrics rebuilt from
// the internal constructors, each dialed endpoint decorated.
func openTraced(cfg luckystore.Config, servers map[luckystore.ProcID]string, tr *tracer) (*luckystore.KVStore, error) {
	dial := func(id types.ProcID, role string) (transport.Endpoint, error) {
		ep, err := tcpnet.Dial(id, servers, tcpnet.WithClientMetrics(tcpnet.NewClientMetrics(tr.reg, role)))
		if err != nil {
			return nil, err
		}
		return tr.endpoint(ep), nil
	}
	writerEP, err := dial(types.WriterID(), "writer")
	if err != nil {
		return nil, err
	}
	readerEPs := make([]transport.Endpoint, cfg.NumReaders)
	for i := range readerEPs {
		ep, err := dial(types.ReaderID(i), "reader")
		if err != nil {
			_ = writerEP.Close()
			for _, r := range readerEPs[:i] {
				_ = r.Close()
			}
			return nil, err
		}
		readerEPs[i] = ep
	}
	return kv.OpenWithEndpoints(cfg, writerEP, readerEPs, kv.WithMetrics(tr.reg))
}
