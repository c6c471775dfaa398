package kv

// Crash-restart support on the sharded KV store: warm restarts revive
// the same keyed shard state, fresh restarts lose it, swaps install an
// arbitrary automaton (chaos Byzantine hook).

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/fault"
	"luckystore/internal/metrics"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

func restartCfg() core.Config {
	return core.Config{T: 1, B: 0, Fw: 0, NumReaders: 1,
		RoundTimeout: 10 * time.Millisecond, OpTimeout: 3 * time.Second}
}

// With S=3 and t=1: crash s0, restart it, crash s1 — every operation
// now needs the restarted server in its quorum, so completion proves
// the restart worked and values prove the state survived.
func TestStoreRestartServerRevivesQuorumMember(t *testing.T) {
	st, err := Open(restartCfg(), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for _, k := range []string{"a", "b"} {
		if err := st.Put(k, "v1"); err != nil {
			t.Fatal(err)
		}
	}
	st.CrashServer(0)
	if err := st.Put("a", "v2"); err != nil {
		t.Fatalf("put with one crashed server: %v", err)
	}
	if err := st.RestartServer(0); err != nil {
		t.Fatal(err)
	}
	st.CrashServer(1)

	if err := st.Put("b", "v2"); err != nil {
		t.Fatalf("put needing the restarted server: %v", err)
	}
	for _, k := range []string{"a", "b"} {
		got, err := st.Get(0, k)
		if err != nil {
			t.Fatalf("get %q needing the restarted server: %v", k, err)
		}
		if got.Val != "v2" {
			t.Errorf("Get(%q) = %v, want v2", k, got)
		}
	}
}

func TestStoreRestartServerFreshAndSwap(t *testing.T) {
	st, err := Open(restartCfg(), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	st.CrashServer(2)
	if err := st.RestartServerFresh(2); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k", "v2"); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get(0, "k"); err != nil || got.Val != "v2" {
		t.Fatalf("Get after fresh restart = %v, %v", got, err)
	}

	// Swap a server for a keyed mute liar: still within t=1 (b=0 — a
	// mute server is indistinguishable from a crashed one).
	if err := st.SwapServerAutomaton(1, fault.Keyed(fault.Mute())); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k", "v3"); err != nil {
		t.Fatalf("put with muted server: %v", err)
	}
	if got, err := st.Get(0, "k"); err != nil || got.Val != "v3" {
		t.Fatalf("Get with muted server = %v, %v", got, err)
	}

	if err := st.RestartServer(99); err == nil {
		t.Error("restart of out-of-range server succeeded")
	}
}

// heldAutomaton blocks its first step until release is closed and
// answers nothing, so whatever reaches it meanwhile queues.
type heldAutomaton struct {
	release chan struct{}
	once    sync.Once
}

func (h *heldAutomaton) StepAppend(_ types.ProcID, _ wire.Message, out []transport.Outgoing) []transport.Outgoing {
	h.once.Do(func() { <-h.release })
	return out
}

// The per-server queue-depth gauge keeps reading the server's runner
// after a swap: with the swapped-in automaton held on its first step,
// the messages behind it must show as queued.
func TestQueueDepthGaugeSurvivesSwap(t *testing.T) {
	reg := metrics.NewRegistry()
	st, err := Open(restartCfg(), WithShards(2), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	held := &heldAutomaton{release: make(chan struct{})}
	defer close(held.release) // before Close, which joins the held worker
	if err := st.SwapServerAutomaton(0, held); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Put(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	line := `lucky_kv_server_queue_depth{server="s0"} `
	var depth int
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(l, line); ok {
				depth, _ = strconv.Atoi(v)
			}
		}
		if depth >= 1 {
			return
		}
	}
	t.Fatalf("queue depth of the held server = %d, want >= 1", depth)
}

// Stores over external endpoints do not own servers: restart must
// refuse, not panic.
func TestExternalStoreRejectsRestart(t *testing.T) {
	cfg := restartCfg()
	st, err := OpenWithEndpoints(cfg, newNopEndpoint(), []transport.Endpoint{newNopEndpoint()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.RestartServer(0); err == nil {
		t.Error("external store accepted RestartServer")
	}
	if err := st.SwapServerAutomaton(0, fault.Mute()); err == nil {
		t.Error("external store accepted SwapServerAutomaton")
	}
}

// nopEndpoint is the minimal transport.Endpoint for construction-only
// tests; its inbox is already closed so pump goroutines exit at once.
type nopEndpoint struct{ ch chan wire.Envelope }

func newNopEndpoint() nopEndpoint {
	ch := make(chan wire.Envelope)
	close(ch)
	return nopEndpoint{ch: ch}
}

func (nopEndpoint) ID() types.ProcID                      { return types.WriterID() }
func (nopEndpoint) Send(types.ProcID, wire.Message) error { return nil }
func (e nopEndpoint) Recv() <-chan wire.Envelope          { return e.ch }
func (nopEndpoint) Close() error                          { return nil }
