package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"luckystore"
	"luckystore/internal/core"
	"luckystore/internal/keyed"
	"luckystore/internal/kv"
	"luckystore/internal/node"
	"luckystore/internal/storage"
	"luckystore/internal/tcpnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// The probes time single layers by calling their exported functions
// directly, each for about d. They are the per-layer floor numbers the
// README's interaction table predicts from: none of them goes through
// the facade, and none of them is gated.

// metric is one named measurement.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

func p50us(samples []int64) float64 {
	slices.Sort(samples)
	return float64(percentile(samples, 50)) / 1e3
}

var probeValue = string(makeValue(7, 1))

// probeMessages are the four messages of the lucky paths at 64 B, keyed
// as the store sends them.
func probeMessages() []wire.Envelope {
	c := types.Tagged{TS: 9, Val: types.Value(probeValue)}
	prev := types.Tagged{TS: 8, Val: types.Value(probeValue)}
	k := func(m wire.Message) wire.Message { return wire.Keyed{Key: keyName(7), Inner: m} }
	return []wire.Envelope{
		{From: "w", To: "s0", Msg: k(wire.PW{TS: 9, PW: c, W: prev})},
		{From: "s0", To: "w", Msg: k(wire.PWAck{TS: 9, Max: c.Stamp()})},
		{From: "r0", To: "s0", Msg: k(wire.Read{TSR: 5, Round: 1})},
		{From: "s0", To: "r0", Msg: k(wire.ReadAck{TSR: 5, Round: 1, PW: c, W: c, VW: prev, Frozen: types.InitialFrozen()})},
	}
}

// probeWire times wire.AppendFrame and wire.DecodeEnvelope, mean ns per
// message over the four lucky-path messages.
func probeWire(d time.Duration) ([]metric, error) {
	envs := probeMessages()
	frames := make([][]byte, len(envs))
	for i, e := range envs {
		f, err := wire.AppendFrame(nil, e)
		if err != nil {
			return nil, err
		}
		frames[i] = f
	}
	var buf []byte
	n := 0
	t0 := time.Now()
	for time.Since(t0) < d/2 {
		for _, e := range envs {
			buf, _ = wire.AppendFrame(buf[:0], e)
		}
		n += len(envs)
	}
	enc := float64(time.Since(t0)) / float64(n)
	n = 0
	t0 = time.Now()
	for time.Since(t0) < d/2 {
		for _, f := range frames {
			// A frame is 4 length bytes, the version byte, the envelope.
			if _, err := wire.DecodeEnvelope(f[5:]); err != nil {
				return nil, err
			}
		}
		n += len(frames)
	}
	dec := float64(time.Since(t0)) / float64(n)
	return []metric{{"wire_encode_ns", "ns", enc}, {"wire_decode_ns", "ns", dec}}, nil
}

// echo replies to the requester with the message it received: the
// trivial automaton under the tcpnet and StepPool probes.
type echo struct{}

func (echo) Step(from types.ProcID, m wire.Message) []transport.Outgoing {
	return []transport.Outgoing{{To: from, Msg: m}}
}

func (echo) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	return append(out, transport.Outgoing{To: from, Msg: m})
}

// probeTCP times one round trip Dial → ListenSharded(echo) → back: the
// floor under any one-round operation.
func probeTCP(d time.Duration) ([]metric, error) {
	srv, err := tcpnet.ListenSharded(types.ServerID(0), "127.0.0.1:0",
		[]node.Automaton{echo{}}, func(wire.Message) int { return 0 })
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	cl, err := tcpnet.Dial(types.WriterID(), map[types.ProcID]string{types.ServerID(0): srv.Addr()})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	// A lost echo must not hang the run: closing the client closes Recv.
	watchdog := time.AfterFunc(d+5*time.Second, func() { cl.Close() })
	defer watchdog.Stop()
	msg := wire.Keyed{Key: keyName(7), Inner: wire.WAck{Round: 1, Tag: 1}}
	var lat []int64
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		if err := cl.Send(types.ServerID(0), msg); err != nil {
			return nil, err
		}
		if _, ok := <-cl.Recv(); !ok {
			return nil, fmt.Errorf("tcp probe: no echo, endpoint closed")
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	return []metric{{"tcp_rtt_us", "us", p50us(lat)}}, nil
}

// sinkEndpoint is the endpoint under the coalescer probe: Send reports
// when it was reached.
type sinkEndpoint struct {
	got  chan time.Time
	recv chan wire.Envelope
}

func (s *sinkEndpoint) ID() types.ProcID { return types.WriterID() }
func (s *sinkEndpoint) Send(types.ProcID, wire.Message) error {
	s.got <- time.Now()
	return nil
}
func (s *sinkEndpoint) Recv() <-chan wire.Envelope { return s.recv }
func (s *sinkEndpoint) Close() error               { close(s.recv); return nil }

// probeCoalescer times Coalescer.Send → inner.Send for a lone message:
// the goroutine hand-off every unbatched send pays.
func probeCoalescer(d time.Duration) ([]metric, error) {
	sink := &sinkEndpoint{got: make(chan time.Time, 1), recv: make(chan wire.Envelope)}
	c := transport.NewCoalescer(sink)
	defer c.Close()
	msg := wire.Keyed{Key: keyName(7), Inner: wire.Read{TSR: 1, Round: 1}}
	var lat []int64
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		if err := c.Send(types.ServerID(0), msg); err != nil {
			return nil, err
		}
		lat = append(lat, int64((<-sink.got).Sub(t0)))
	}
	return []metric{{"coalescer_hop_us", "us", p50us(lat)}}, nil
}

// probeStepPool times StepPool.Submit → sink with a no-op automaton: the
// queue hand-off every server step pays.
func probeStepPool(d time.Duration) ([]metric, error) {
	pool := node.NewStepPool([]node.Automaton{echo{}}, func(wire.Message) int { return 0 })
	defer pool.Close()
	msg := wire.Keyed{Key: keyName(7), Inner: wire.Read{TSR: 1, Round: 1}}
	reached := make(chan time.Time, 1)
	sink := func([]transport.Outgoing) { reached <- time.Now() }
	var lat []int64
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		if !pool.Submit(types.WriterID(), msg, sink) {
			return nil, fmt.Errorf("step pool probe: pool closed")
		}
		lat = append(lat, int64((<-reached).Sub(t0)))
	}
	return []metric{{"steppool_hop_us", "us", p50us(lat)}}, nil
}

// probeServerStep times StepAppend of PW, W and READ on one shard
// holding numKeys registers: the per-message server cost under every
// workload.
func probeServerStep(d time.Duration) ([]metric, error) {
	srv := keyed.NewShardedServer(1, func() node.Automaton { return core.NewServer() })
	shard := srv.Shards()[0].(node.AppendStepper)
	val := types.Value(probeValue)
	ts := make([]types.TS, numKeys)
	var out []transport.Outgoing
	pw := func(k int) {
		ts[k]++
		c := types.Tagged{TS: ts[k], Val: val}
		prev := types.Tagged{TS: ts[k] - 1}
		if prev.TS > 0 {
			prev.Val = val
		}
		out = shard.StepAppend(types.WriterID(), wire.Keyed{Key: keyName(k), Inner: wire.PW{TS: ts[k], PW: c, W: prev}}, out[:0])
	}
	for k := 0; k < numKeys; k++ {
		pw(k)
	}
	if srv.Regs() != numKeys || len(out) != 1 {
		return nil, fmt.Errorf("server step probe: %d registers, %d replies to the last PW", srv.Regs(), len(out))
	}
	n, k := 0, 0
	var tsr types.ReaderTS
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := 0; i < 64; i++ {
			k = (k + 61) % numKeys
			pw(k)
			c := types.Tagged{TS: ts[k], Val: val}
			out = shard.StepAppend(types.WriterID(), wire.Keyed{Key: keyName(k), Inner: wire.W{Round: 2, Tag: int64(ts[k]), C: c}}, out[:0])
			tsr++
			out = shard.StepAppend(types.ReaderID(0), wire.Keyed{Key: keyName(k), Inner: wire.Read{TSR: tsr, Round: 1}}, out[:0])
			n += 3
		}
	}
	return []metric{{"server_step_ns", "ns", float64(time.Since(t0)) / float64(n)}}, nil
}

// probeWAL times storage.File's Append and Commit for one keyed PW
// record at a time — the unbatched cost one durable Put pays per server.
func probeWAL(d time.Duration, buildDir string) ([]metric, error) {
	dir := filepath.Join(buildDir, "wal", "probe-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	f, err := storage.NewFile(dir, kv.NewStorageAutomaton)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rec []byte
	var app, com []int64
	val := types.Value(probeValue)
	var ts types.TS
	for start := time.Now(); time.Since(start) < d; {
		ts++
		c := types.Tagged{TS: ts, Val: val}
		k := int(ts) % numKeys
		rec, err = storage.AppendRecord(rec[:0], types.WriterID(), types.ServerID(0),
			wire.Keyed{Key: keyName(k), Inner: wire.PW{TS: ts, PW: c, W: c}})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := f.Append(rec); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := f.Commit(); err != nil {
			return nil, err
		}
		app = append(app, int64(t1.Sub(t0)))
		com = append(com, int64(time.Since(t1)))
	}
	return []metric{{"wal_append_us", "us", p50us(app)}, {"wal_commit_us", "us", p50us(com)}}, nil
}

// probeSim times blocking Put and Get through OpenKV on the in-memory
// network: the whole stack minus sockets.
func probeSim(d time.Duration) ([]metric, error) {
	store, err := luckystore.OpenKV(fleetConfig)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	g := newGate(nil)
	if err := g.preload(store); err != nil {
		return nil, fmt.Errorf("sim probe: %w", err)
	}
	var w, r actorStats
	k := 0
	for start := time.Now(); time.Since(start) < d; {
		k = (k + 61) % numKeys
		g.put(store, k, &w)
		g.get(store, k, &r)
	}
	if err := firstFailure("sim probe", &w, &r); err != nil {
		return nil, err
	}
	return []metric{{"kv_sim_put_us", "us", p50us(w.lat)}, {"kv_sim_get_us", "us", p50us(r.lat)}}, nil
}

// runProbes runs every micro-probe for about d each.
func runProbes(d time.Duration, buildDir string) ([]metric, error) {
	var all []metric
	for _, probe := range []func(time.Duration) ([]metric, error){
		probeTCP, probeWire, probeCoalescer, probeStepPool, probeServerStep,
		func(d time.Duration) ([]metric, error) { return probeWAL(d, buildDir) },
		probeSim,
	} {
		ms, err := probe(d)
		if err != nil {
			return nil, err
		}
		all = append(all, ms...)
	}
	return all, nil
}
