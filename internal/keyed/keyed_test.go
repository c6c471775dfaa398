package keyed

import (
	"strings"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/drive"
	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

func coreFactory() node.Automaton { return core.NewServer() }

// TestServerRoutesPerKey steps a one-shard keyed server through its
// whole-server StepAppend, the path replay and offline tooling take.
func TestServerRoutesPerKey(t *testing.T) {
	s := NewShardedServer(1, coreFactory)
	pw := wire.PW{TS: 1, PW: types.Tagged{TS: 1, Val: "a"}, W: types.Bottom()}

	out := s.StepAppend(types.WriterID(), wire.Keyed{Key: "alpha", Inner: pw}, nil)
	if len(out) != 1 {
		t.Fatalf("no reply: %v", out)
	}
	k, ok := out[0].Msg.(wire.Keyed)
	if !ok || k.Key != "alpha" {
		t.Fatalf("reply not keyed to alpha: %+v", out[0].Msg)
	}
	if _, ok := k.Inner.(wire.PWAck); !ok {
		t.Fatalf("inner reply = %T, want PWAck", k.Inner)
	}

	// A different key gets a fresh register: reading beta sees ⊥.
	rd := wire.Read{TSR: 1, Round: 1}
	out = s.StepAppend(types.ReaderID(0), wire.Keyed{Key: "beta", Inner: rd}, nil)
	ack := out[0].Msg.(wire.Keyed).Inner.(wire.ReadAck)
	if !ack.PW.IsBottom() {
		t.Errorf("beta register contaminated by alpha write: %+v", ack)
	}
	// Alpha still has its value.
	out = s.StepAppend(types.ReaderID(0), wire.Keyed{Key: "alpha", Inner: rd}, nil)
	ack = out[0].Msg.(wire.Keyed).Inner.(wire.ReadAck)
	if ack.PW != (types.Tagged{TS: 1, Val: "a"}) {
		t.Errorf("alpha register lost its value: %+v", ack)
	}
	if s.Regs() != 2 {
		t.Errorf("Regs() = %d, want 2", s.Regs())
	}
}

func TestServerDropsUnkeyedAndMalformed(t *testing.T) {
	s := NewShardedServer(1, coreFactory)
	if out := s.StepAppend(types.WriterID(), wire.PW{TS: 1, PW: types.Tagged{TS: 1, Val: "a"}, W: types.Bottom()}, nil); out != nil {
		t.Error("unkeyed message answered")
	}
	if out := s.StepAppend(types.WriterID(), wire.Keyed{Key: "", Inner: wire.ABDRead{}}, nil); out != nil {
		t.Error("empty key answered")
	}
	nested := wire.Keyed{Key: "a", Inner: wire.Keyed{Key: "b", Inner: wire.ABDRead{}}}
	if out := s.StepAppend(types.WriterID(), nested, nil); out != nil {
		t.Error("nested keyed answered")
	}
	if s.Regs() != 0 {
		t.Errorf("malformed traffic instantiated %d registers", s.Regs())
	}
}

func newDemuxPair(t *testing.T) (*simnet.Network, *Demux, transport.Endpoint) {
	t.Helper()
	n, err := simnet.New([]types.ProcID{types.WriterID(), types.ServerID(0)})
	if err != nil {
		t.Fatal(err)
	}
	wep, err := n.Endpoint(types.WriterID())
	if err != nil {
		t.Fatal(err)
	}
	sep, err := n.Endpoint(types.ServerID(0))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDemux(wep)
	t.Cleanup(func() {
		_ = d.Close()
		_ = n.Close()
	})
	return n, d, sep
}

// probe is a task that only listens: it starts with start, keeps the
// replies delivered to it, and is decided on its first reply or at its
// deadline.
type probe struct {
	start   func()
	until   time.Time
	got     []wire.Envelope
	expired bool
}

func (p *probe) Start(time.Time, *[]transport.Outgoing) (bool, error) {
	if p.start != nil {
		p.start()
	}
	return false, nil
}
func (p *probe) Deliver(env wire.Envelope)                              { p.got = append(p.got, env) }
func (p *probe) Decided() bool                                          { return len(p.got) > 0 || p.expired }
func (p *probe) Short() int                                             { return 1 }
func (p *probe) Deadline() time.Time                                    { return p.until }
func (p *probe) Expire(time.Time, *[]transport.Outgoing)                { p.expired = true }
func (p *probe) Advance(time.Time, *[]transport.Outgoing) (bool, error) { return true, nil }
func (p *probe) End(error)                                              {}

// start begins a client's operation at now, appending its first round to
// out.
type start = func(now time.Time, out *[]transport.Outgoing) (bool, error)

// write is the start of a WRITE of v by w.
func write(w *core.Writer, v types.Value) start {
	return func(now time.Time, out *[]transport.Outgoing) (bool, error) { return w.Start(now, v, out) }
}

// task is a core client's operation as a drive.Task: start begins it,
// and End keeps how it ended.
type task struct {
	drive.Op
	start start
	err   error
}

func (t *task) Start(now time.Time, out *[]transport.Outgoing) (bool, error) {
	return t.start(now, out)
}
func (t *task) End(err error) { t.err = err }

// newDriver returns a driver over a fresh inbox of d.
func newDriver(t *testing.T, d *Demux) *drive.Driver {
	t.Helper()
	in, err := d.NewInbox()
	if err != nil {
		t.Fatal(err)
	}
	return drive.New(in, d, nil)
}

// run drives one operation of a core client — begun by start — over the
// client's subscription sub of d, on a driver of its own, as kv does.
func run(d *Demux, sub *Sub, op drive.Op, start start) error {
	in, err := d.NewInbox()
	if err != nil {
		return err
	}
	tk := &task{Op: op, start: start}
	dr := drive.New(in, d, nil)
	dr.Add(tk, sub)
	dr.Run()
	return tk.err
}

// subscribe returns key's subscription of d.
func subscribe(t *testing.T, d *Demux, key string) *Sub {
	t.Helper()
	sub, err := d.Subscribe(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func TestDemuxRoutesRepliesByKey(t *testing.T) {
	_, d, sep := newDemuxPair(t)
	alpha, err := d.Subscribe("alpha", nil)
	if err != nil {
		t.Fatal(err)
	}
	beta, err := d.Subscribe("beta", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Sends are wrapped with the key.
	if err := alpha.Send(types.ServerID(0), wire.ABDRead{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	env := <-sep.Recv()
	k, ok := env.Msg.(wire.Keyed)
	if !ok || k.Key != "alpha" {
		t.Fatalf("server received %+v, want keyed alpha", env.Msg)
	}

	// Replies route to the matching subscription's slot only.
	now := time.Now()
	pa := &probe{until: now.Add(30 * time.Millisecond)}
	pb := &probe{until: now.Add(2 * time.Second), start: func() {
		reply := wire.Keyed{Key: "beta", Inner: wire.ABDReadAck{Seq: 9, C: types.Bottom()}}
		if err := sep.Send(types.WriterID(), reply); err != nil {
			t.Fatal(err)
		}
	}}
	dr := newDriver(t, d)
	dr.Add(pa, alpha)
	dr.Add(pb, beta)
	dr.Run()
	if len(pb.got) != 1 {
		t.Fatalf("beta got %d replies, want its one", len(pb.got))
	}
	if ack, ok := pb.got[0].Msg.(wire.ABDReadAck); !ok || ack.Seq != 9 {
		t.Fatalf("beta got %+v", pb.got[0].Msg)
	}
	if len(pa.got) != 0 {
		t.Fatalf("alpha stole beta's reply: %+v", pa.got)
	}
}

func TestDemuxDropsRepliesForUnopenedKeys(t *testing.T) {
	_, d, sep := newDemuxPair(t)
	opened, err := d.Subscribe("opened", nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &probe{until: time.Now().Add(2 * time.Second), start: func() {
		if err := sep.Send(types.WriterID(), wire.Keyed{Key: "ghost", Inner: wire.ABDReadAck{Seq: 1, C: types.Bottom()}}); err != nil {
			t.Fatal(err)
		}
		if err := sep.Send(types.WriterID(), wire.Keyed{Key: "opened", Inner: wire.ABDReadAck{Seq: 2, C: types.Bottom()}}); err != nil {
			t.Fatal(err)
		}
	}}
	dr := newDriver(t, d)
	dr.Add(p, opened)
	dr.Run()
	if len(p.got) == 0 || p.got[0].Msg.(wire.ABDReadAck).Seq != 2 {
		t.Fatalf("got %+v, ghost traffic leaked", p.got)
	}
}

func TestDemuxKeyValidationAndClose(t *testing.T) {
	_, d, _ := newDemuxPair(t)
	if _, err := d.Subscribe("", nil); err == nil {
		t.Error("empty key subscribed")
	}
	if _, err := d.Subscribe(strings.Repeat("k", wire.MaxKeyLen+1), nil); err == nil {
		t.Error("oversized key subscribed")
	}
	sub, err := d.Subscribe("x", func(*Sub) any { return "handle of x" })
	if err != nil {
		t.Fatal(err)
	}
	if h := d.Handle("x"); h != "handle of x" {
		t.Errorf("Handle(x) = %v", h)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if h := d.Handle("x"); h != nil {
		t.Errorf("Handle(x) = %v after the subscription closed", h)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := d.Subscribe("y", nil); err == nil {
		t.Error("Subscribe succeeded after Close")
	}
	if _, err := d.NewInbox(); err == nil {
		t.Error("NewInbox succeeded after Close")
	}
}

// Full stack: core writer/reader over keyed endpoints against one-shard
// keyed servers — two independent registers on one 6-server deployment.
func TestEndToEndTwoRegisters(t *testing.T) {
	cfg := core.Config{T: 2, B: 1, Fw: 1, NumReaders: 1, RoundTimeout: 15 * time.Millisecond}
	ids := append(types.ServerIDs(cfg.S()), types.WriterID(), types.ReaderID(0))
	n, err := simnet.New(ids)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var runners []*node.Runner
	for i := 0; i < cfg.S(); i++ {
		ep, err := n.Endpoint(types.ServerID(i))
		if err != nil {
			t.Fatal(err)
		}
		srv := NewShardedServer(1, coreFactory)
		r := node.NewShardedRunner(ep, srv.Shards(), srv.Route())
		runners = append(runners, r)
		r.Start()
	}
	defer func() {
		for _, r := range runners {
			r.Close()
		}
	}()

	wep, err := n.Endpoint(types.WriterID())
	if err != nil {
		t.Fatal(err)
	}
	wd := NewDemux(wep)
	defer wd.Close()
	rep, err := n.Endpoint(types.ReaderID(0))
	if err != nil {
		t.Fatal(err)
	}
	rd := NewDemux(rep)
	defer rd.Close()

	for _, key := range []string{"users/42", "config"} {
		wsub := subscribe(t, wd, key)
		w := core.NewWriter(cfg, types.WriterID(), wsub)
		if err := run(wd, wsub, w, write(w, types.Value("value-of-"+key))); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if !w.LastMeta().Fast {
			t.Errorf("%s: write not fast over keyed transport", key)
		}
		rsub := subscribe(t, rd, key)
		r := core.NewReader(cfg, types.ReaderID(0), rsub)
		if err := run(rd, rsub, r, r.Start); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if got := r.LastMeta().Returned; got.Val != types.Value("value-of-"+key) {
			t.Errorf("%s: Read() = %v", key, got)
		}
		if !r.LastMeta().Fast() {
			t.Errorf("%s: read not fast over keyed transport", key)
		}
	}
}
