//go:build !race

package kv

import (
	"fmt"
	"runtime"
	"testing"

	"luckystore/internal/core"
	"luckystore/internal/node"
	"luckystore/internal/simnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// cannedServer answers every keyed request of a lucky operation —
// PW, W, READ — the way a fresh register would, keeping no state per
// key, so that the heap a test measures behind it is the client's.
type cannedServer struct{}

func (cannedServer) StepAppend(from types.ProcID, m wire.Message, out []transport.Outgoing) []transport.Outgoing {
	k, ok := m.(wire.Keyed)
	if !ok {
		return out
	}
	var reply wire.Message
	switch q := k.Inner.(type) {
	case wire.PW:
		reply = wire.PWAck{TS: q.TS}
	case wire.W:
		reply = wire.WAck{Round: q.Round, Tag: q.Tag}
	case wire.Read:
		reply = wire.ReadAck{TSR: q.TSR, Round: q.Round, PW: types.Bottom(), W: types.Bottom(), VW: types.Bottom()}
	default:
		return out
	}
	return append(out, transport.Outgoing{To: from, Msg: wire.Keyed{Key: k.Key, Inner: reply}})
}

// clientBytesPerKey is what one open key costs a client store on the
// heap once it has been Put and Got: the writer handle and one reader
// handle — the core clients with their pooled round state, the routed
// subscriptions carrying the handles, and the demux map entries.
// Measured 2 996 B on S = 3; 3 178 B while kv kept the handles in maps
// of its own, and 6 558 B while a per-key inbox (transport.Mailbox: its
// 16-slot channel, stop channel and cond) and two timers per role stood
// where the pooled drivers are. Pinned at the 3 178 B measurement plus
// 10 %.
const clientBytesPerKey = 3500

func TestClientMemoryPerOpenKey(t *testing.T) {
	cfg := core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1}
	sim, err := simnet.New(append(types.ServerIDs(cfg.S()), types.WriterID(), types.ReaderID(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	srvs, err := core.NewServers(core.Endpoints(sim), cfg.S(), func(int) (node.Automaton, []node.Automaton, func(wire.Message) int) {
		return cannedServer{}, nil, nil
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srvs.Close()
	wep, err := sim.Endpoint(types.WriterID())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Endpoint(types.ReaderID(0))
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenWithEndpoints(cfg, wep, []transport.Endpoint{rep})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const n = 2048
	keys := make([]string, n+1)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	touch := func(key string) {
		if err := st.Put(key, "v"); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Get(0, key); err != nil {
			t.Fatal(err)
		}
	}
	touch(keys[n]) // the per-store costs: connections, drivers
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for _, key := range keys[:n] {
		touch(key)
	}
	perKey := float64(heap()-before) / n
	runtime.KeepAlive(keys)
	t.Logf("client heap per open key (writer + one reader handle): %.0f B", perKey)
	if perKey > clientBytesPerKey {
		t.Errorf("client heap per open key = %.0f B, budget %d", perKey, clientBytesPerKey)
	}
}
