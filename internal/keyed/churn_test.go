package keyed

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/drive"
	"luckystore/internal/node"
	"luckystore/internal/tcpnet"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// tagged is a task that sends a round-1 READ stamped tsr to every
// server, and is decided once all of them answered it or its deadline
// passed. A reply stamped for another key is a misrouting, reported to
// t: tsr / keyTag names the key.
type tagged struct {
	t       *testing.T
	servers []types.ProcID
	tsr     types.ReaderTS
	until   time.Time
	got     int
	expired bool
}

const keyTag = 1_000_000

func (k *tagged) Start(now time.Time, out *[]transport.Outgoing) (bool, error) {
	k.until = now.Add(20 * time.Millisecond)
	for _, s := range k.servers {
		*out = append(*out, transport.Outgoing{To: s, Msg: wire.Read{TSR: k.tsr, Round: 1}})
	}
	return false, nil
}

func (k *tagged) Deliver(env wire.Envelope) {
	a, ok := env.Msg.(wire.ReadAck)
	if !ok || a.TSR/keyTag != k.tsr/keyTag {
		k.t.Errorf("a task stamped %d was delivered %+v, a reply for another key", k.tsr, env.Msg)
		return
	}
	if a.TSR == k.tsr {
		k.got++
	}
}
func (k *tagged) Decided() bool                                          { return k.got == len(k.servers) || k.expired }
func (k *tagged) Short() int                                             { return len(k.servers) - k.got }
func (k *tagged) Deadline() time.Time                                    { return k.until }
func (k *tagged) Expire(time.Time, *[]transport.Outgoing)                { k.expired = true }
func (k *tagged) Advance(time.Time, *[]transport.Outgoing) (bool, error) { return true, nil }
func (k *tagged) End(error)                                              {}

// TestDemuxSubscribeCloseRaceTCPRouting runs operations on a few keys
// per driver over loopback TCP — replies routed on the client's read
// loops — while another goroutine keeps closing the keys' subscriptions
// and subscribing unrelated ones. A reply for a key being closed is
// delivered to the key's route or dropped: never to another key's task
// (every reply carries its key's stamp), and under -race the routing's
// reads of the subscriptions are ordered with the writes.
func TestDemuxSubscribeCloseRaceTCPRouting(t *testing.T) {
	const (
		s       = 3
		drivers = 3
		keys    = 3
		ops     = 40
	)
	addrs := make(map[types.ProcID]string, s)
	var servers []types.ProcID
	for i := 0; i < s; i++ {
		auto := NewShardedServer(1, func() node.Automaton { return core.NewServer() })
		srv, err := tcpnet.ListenSharded(types.ServerID(i), "127.0.0.1:0", auto.Shards(), auto.Route())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[srv.ID()] = srv.Addr()
		servers = append(servers, srv.ID())
	}
	c, err := tcpnet.Dial(types.ReaderID(0), addrs)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDemux(c)
	defer d.Close()

	key := func(g, j int) string { return fmt.Sprintf("g%dk%d", g, j) }
	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() { // closes the drivers' keys under them, and churns others
		defer close(churned)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if sub, err := d.Subscribe(key(n%drivers, n/drivers%keys), nil); err == nil {
				_ = sub.Close()
			}
			if sub, err := d.Subscribe(fmt.Sprintf("x%d", n), nil); err == nil {
				_ = sub.Close()
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	var delivered, dropped atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < drivers; g++ {
		in, err := d.NewInbox()
		if err != nil {
			t.Fatal(err)
		}
		dr := drive.New(in, d, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= ops; i++ {
				j := i % keys
				sub, err := d.Subscribe(key(g, j), nil)
				if err != nil {
					t.Error(err)
					return
				}
				k := &tagged{t: t, servers: servers, tsr: types.ReaderTS((g*keys+j+1)*keyTag + i)}
				dr.Add(k, sub)
				dr.Run()
				if k.expired {
					dropped.Add(1)
				} else {
					delivered.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-churned
	if delivered.Load() == 0 {
		t.Errorf("no operation got its replies (%d dropped)", dropped.Load())
	}
	t.Logf("%d operations got their replies, %d lost them to a close", delivered.Load(), dropped.Load())
}
