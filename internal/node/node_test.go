package node

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"luckystore/internal/simnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// echoAutomaton replies to every ABDRead with an ABDReadAck carrying a
// step counter in the timestamp.
type echoAutomaton struct {
	stepCount int
}

func (e *echoAutomaton) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	e.stepCount++
	if _, ok := m.(wire.ABDRead); !ok {
		return out
	}
	return append(out, transport.Outgoing{
		To:  from,
		Msg: wire.ABDReadAck{Seq: int64(e.stepCount), C: types.Bottom()},
	})
}

func setup(t *testing.T) (*simnet.Network, transport.Endpoint, *Runner) {
	t.Helper()
	n, err := simnet.New([]types.ProcID{types.WriterID(), types.ServerID(0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	cli, err := n.Endpoint(types.WriterID())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := n.Endpoint(types.ServerID(0))
	if err != nil {
		t.Fatal(err)
	}
	r := NewShardedRunner(srv, []Automaton{&echoAutomaton{}}, func(wire.Message) int { return 0 })
	return n, cli, r
}

func recvOrFail(t *testing.T, ep transport.Endpoint) wire.Envelope {
	t.Helper()
	select {
	case env, ok := <-ep.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		return env
	case <-time.After(5 * time.Second):
		t.Fatal("no reply")
		return wire.Envelope{}
	}
}

func TestRunnerEchoes(t *testing.T) {
	_, cli, r := setup(t)
	r.Start()
	r.Start() // idempotent
	defer r.Stop()
	if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	env := recvOrFail(t, cli)
	if env.From != types.ServerID(0) {
		t.Errorf("reply from %s, want s0", env.From)
	}
	if _, ok := env.Msg.(wire.ABDReadAck); !ok {
		t.Errorf("reply = %T, want ABDReadAck", env.Msg)
	}
	if r.Steps() != 1 {
		t.Errorf("Steps() = %d, want 1", r.Steps())
	}
}

func TestCrashStopsProcessing(t *testing.T) {
	_, cli, r := setup(t)
	r.Start()
	if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvOrFail(t, cli)
	r.Crash()
	r.Crash() // idempotent
	if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-cli.Recv():
		t.Fatalf("crashed server replied: %+v", env)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestCrashAfterSteps(t *testing.T) {
	_, cli, r := setup(t)
	r.Start()
	defer r.Stop()
	r.CrashAfterSteps(2)
	for i := 0; i < 5; i++ {
		if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Exactly two replies must come back.
	for i := 0; i < 2; i++ {
		recvOrFail(t, cli)
	}
	select {
	case env := <-cli.Recv():
		t.Fatalf("got a third reply after scheduled crash: %+v", env)
	case <-time.After(100 * time.Millisecond):
	}
	if got := r.Steps(); got != 2 {
		t.Errorf("Steps() = %d, want 2", got)
	}
}

// Crashing a runner that was never started must not hang, and a later
// Start must not resurrect it — this models an initially crashed
// server (core's WithCrashedServer).
func TestCrashBeforeStart(t *testing.T) {
	_, cli, r := setup(t)
	done := make(chan struct{})
	go func() {
		r.Crash()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Crash on a never-started runner hung")
	}
	r.Start() // must be a no-op
	if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-cli.Recv():
		t.Fatalf("crashed-before-start server replied: %+v", env)
	case <-time.After(100 * time.Millisecond):
	}
	r.Stop() // still idempotent
}

func TestRunnerExitsWhenEndpointCloses(t *testing.T) {
	n, _, r := setup(t)
	r.Start()
	n.Close()
	done := make(chan struct{})
	go func() {
		r.Stop() // must return promptly: pump saw the closed channel
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("runner did not exit after endpoint close")
	}
}

// shardEcho replies to ABDRead with an ack naming the shard in the Seq
// field. It is deliberately not concurrency-safe: exclusive shard
// ownership is what makes it correct, and the -race runs would flag any
// violation.
type shardEcho struct {
	shard int
	steps int
}

func (e *shardEcho) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	e.steps++
	if _, ok := m.(wire.ABDRead); !ok {
		return out
	}
	return append(out, transport.Outgoing{
		To:  from,
		Msg: wire.ABDReadAck{Seq: int64(e.shard), C: types.Bottom()},
	})
}

// routeBySeq routes ABDRead{Seq} to shard Seq % n, everything else to 0.
func routeBySeq(n int) func(wire.Message) int {
	return func(m wire.Message) int {
		if r, ok := m.(wire.ABDRead); ok {
			return int(r.Seq) % n
		}
		return 0
	}
}

func setupSharded(t *testing.T, shards int) (*simnet.Network, transport.Endpoint, *Runner, []*shardEcho) {
	t.Helper()
	n, err := simnet.New([]types.ProcID{types.WriterID(), types.ServerID(0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	cli, err := n.Endpoint(types.WriterID())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := n.Endpoint(types.ServerID(0))
	if err != nil {
		t.Fatal(err)
	}
	autos := make([]*shardEcho, shards)
	as := make([]Automaton, shards)
	for i := range autos {
		autos[i] = &shardEcho{shard: i}
		as[i] = autos[i]
	}
	r := NewShardedRunner(srv, as, routeBySeq(shards))
	return n, cli, r, autos
}

func TestShardedRunnerRoutesToOwningShard(t *testing.T) {
	_, cli, r, autos := setupSharded(t, 4)
	r.Start()
	r.Start() // idempotent
	defer r.Stop()

	const msgs = 40
	for i := 0; i < msgs; i++ {
		if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	perShard := make(map[int64]int)
	for i := 0; i < msgs; i++ {
		env := recvOrFail(t, cli)
		ack, ok := env.Msg.(wire.ABDReadAck)
		if !ok {
			t.Fatalf("reply = %T, want ABDReadAck", env.Msg)
		}
		perShard[ack.Seq]++
	}
	for s := int64(0); s < 4; s++ {
		if perShard[s] != msgs/4 {
			t.Errorf("shard %d handled %d messages, want %d", s, perShard[s], msgs/4)
		}
	}
	r.Stop() // quiesce before reading automaton state
	total := 0
	for _, a := range autos {
		total += a.steps
	}
	if total != msgs {
		t.Errorf("automata stepped %d times, want %d", total, msgs)
	}
	if got := r.Steps(); got != msgs {
		t.Errorf("Steps() = %d, want %d", got, msgs)
	}
}

func TestShardedRunnerCrashStopsAllShards(t *testing.T) {
	_, cli, r, _ := setupSharded(t, 4)
	r.Start()
	if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	recvOrFail(t, cli)
	r.Crash()
	r.Crash() // idempotent
	for i := 0; i < 4; i++ {
		if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case env := <-cli.Recv():
		t.Fatalf("crashed server replied: %+v", env)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestShardedRunnerCrashAfterStepsExact floods every shard concurrently
// and checks the runner processes exactly n more messages: the pump
// takes one ticket per admitted message, whichever shard steps it.
func TestShardedRunnerCrashAfterStepsExact(t *testing.T) {
	_, cli, r, _ := setupSharded(t, 8)
	r.Start()
	defer r.Stop()
	const budget = 25
	r.CrashAfterSteps(budget)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = cli.Send(types.ServerID(0), wire.ABDRead{Seq: int64(g*20 + i)})
			}
		}(g)
	}
	wg.Wait()

	replies := 0
	for {
		select {
		case _, ok := <-cli.Recv():
			if !ok {
				t.Fatal("client inbox closed")
			}
			replies++
			if replies > budget {
				t.Fatalf("got %d replies, budget was %d", replies, budget)
			}
		case <-time.After(300 * time.Millisecond):
			if replies != budget {
				t.Fatalf("got %d replies, want exactly %d", replies, budget)
			}
			if got := r.Steps(); got != budget {
				t.Errorf("Steps() = %d, want %d", got, budget)
			}
			return
		}
	}
}

func TestShardedRunnerCrashBeforeStart(t *testing.T) {
	_, cli, r, _ := setupSharded(t, 2)
	done := make(chan struct{})
	go func() {
		r.Crash()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Crash on a never-started sharded runner hung")
	}
	r.Start() // must be a no-op
	if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-cli.Recv():
		t.Fatalf("crashed-before-start server replied: %+v", env)
	case <-time.After(100 * time.Millisecond):
	}
	r.Stop() // still idempotent
}

// idleEndpoint is an endpoint nothing ever arrives on, for runners that
// are never started.
type idleEndpoint struct{ ch chan wire.Envelope }

func (idleEndpoint) ID() types.ProcID                      { return types.ServerID(0) }
func (idleEndpoint) Send(types.ProcID, wire.Message) error { return nil }
func (e idleEndpoint) Recv() <-chan wire.Envelope          { return e.ch }
func (idleEndpoint) Close() error                          { return nil }

// TestShardedRunnerCrashBeforeStartJoinsQueues verifies a crashed,
// never-started runner leaves no goroutines behind: no step pool may be
// built once Crash has consumed the Start path.
func TestShardedRunnerCrashBeforeStartJoinsQueues(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		autos := make([]Automaton, 8)
		for j := range autos {
			autos[j] = &shardEcho{shard: j}
		}
		r := NewShardedRunner(idleEndpoint{ch: make(chan wire.Envelope)}, autos, routeBySeq(8))
		r.Crash()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	// 10 runners × 8 shards would leak 80 workers; allow slack for
	// unrelated runtime goroutines.
	if got := runtime.NumGoroutine(); got > before+5 {
		t.Errorf("goroutines grew %d → %d: crash-before-start leaks shard queues", before, got)
	}
}

func TestShardedRunnerExitsWhenEndpointCloses(t *testing.T) {
	n, _, r, _ := setupSharded(t, 2)
	r.Start()
	n.Close()
	done := make(chan struct{})
	go func() {
		r.Stop() // must return promptly: the pump saw the closed channel
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sharded runner did not exit after endpoint close")
	}
}

func TestShardedRunnerOutOfRangeRouteClamps(t *testing.T) {
	n, err := simnet.New([]types.ProcID{types.WriterID(), types.ServerID(0)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	cli, _ := n.Endpoint(types.WriterID())
	srv, _ := n.Endpoint(types.ServerID(0))
	a := &shardEcho{shard: 7}
	r := NewShardedRunner(srv, []Automaton{a}, func(wire.Message) int { return 99 })
	r.Start()
	defer r.Stop()
	if err := cli.Send(types.ServerID(0), wire.ABDRead{Seq: 3}); err != nil {
		t.Fatal(err)
	}
	env := recvOrFail(t, cli)
	if ack := env.Msg.(wire.ABDReadAck); ack.Seq != 7 {
		t.Errorf("reply came from shard-tagged ack %d, want 7 (shard 0 clamped)", ack.Seq)
	}
}

// orderShard acknowledges keyed READs with the request's tsr and checks,
// in plain unsynchronized state, that every (peer, key) stream steps in
// increasing tsr order — the race detector turns any overlap of two
// steps, or a missing happens-before edge between consecutive ones,
// into a failure. It declares NonBlocking, so the pump may step it, and
// records which goroutine did.
type orderShard struct {
	last           map[string]types.ReaderTS
	inline, pooled int
	reordered      []string
}

func (*orderShard) StepNeverBlocks() bool { return true }

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
	if steppedOnPump() {
		s.inline++
	} else {
		s.pooled++
	}
	return append(out, transport.Outgoing{To: from, Msg: wire.Keyed{Key: k.Key, Inner: wire.WAck{Round: 1, Tag: int64(r.TSR)}}})
}

// steppedOnPump reports whether the current step runs on a Runner's
// pump rather than on a shard worker.
func steppedOnPump() bool {
	var pcs [24]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "(*Runner).run") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestRunnerKeepsFIFOAcrossInlineAndPooled has several clients stream
// keyed requests at a two-shard runner while StepPool.Do now and then
// holds a shard, so each shard's messages switch between the pump and
// the worker over and over. Every (peer, key) stream must still step,
// and be answered, in send order, and both paths must have run.
func TestRunnerKeepsFIFOAcrossInlineAndPooled(t *testing.T) {
	const clients, perKey = 4, 300
	keys := []string{"a", "b", "c"}
	ids := []types.ProcID{types.ServerID(0)}
	for c := 0; c < clients; c++ {
		ids = append(ids, types.ReaderID(c))
	}
	n, err := simnet.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	srv, _ := n.Endpoint(types.ServerID(0))
	shards := []*orderShard{{}, {}}
	r := NewShardedRunner(srv, []Automaton{shards[0], shards[1]}, func(m wire.Message) int {
		return int(m.(wire.Keyed).Key[0]) % 2
	})
	r.Start()
	defer r.Stop()

	holdDone := make(chan struct{})
	var holder sync.WaitGroup
	holder.Add(1)
	go func() { // now and then hold a shard, forcing its backlog onto the pool
		defer holder.Done()
		for i := 0; ; i++ {
			select {
			case <-holdDone:
				return
			default:
			}
			r.pool.Load().Do(i%2, func(Automaton) { time.Sleep(200 * time.Microsecond) })
			time.Sleep(300 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		ep, _ := n.Endpoint(types.ReaderID(c))
		wg.Add(1)
		go func(c int, ep transport.Endpoint) {
			defer wg.Done()
			for i := 1; i <= perKey; i++ {
				for _, k := range keys {
					m := wire.Keyed{Key: k, Inner: wire.Read{TSR: types.ReaderTS(i), Round: 1}}
					if err := ep.Send(types.ServerID(0), m); err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
				}
			}
			next := map[string]int64{}
			for got := 0; got < perKey*len(keys); got++ {
				env := recvOrFail(t, ep)
				k := env.Msg.(wire.Keyed)
				tag := k.Inner.(wire.WAck).Tag
				if tag != next[k.Key]+1 {
					t.Errorf("client %d key %s: reply %d after %d", c, k.Key, tag, next[k.Key])
					return
				}
				next[k.Key] = tag
			}
		}(c, ep)
	}
	wg.Wait()
	close(holdDone)
	holder.Wait()
	r.Stop() // quiesce before reading shard state
	for i, s := range shards {
		if len(s.reordered) > 0 {
			t.Errorf("shard %d stepped out of order: %v", i, s.reordered)
		}
		if s.inline == 0 || s.pooled == 0 {
			t.Errorf("shard %d: inline %d, pooled %d steps — want both paths", i, s.inline, s.pooled)
		}
	}
}
