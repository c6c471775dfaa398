package luckystore_test

import (
	"errors"
	"testing"
	"time"

	"luckystore"
)

func quickCfg() luckystore.Config {
	return luckystore.Config{T: 2, B: 1, Fw: 1, NumReaders: 2,
		RoundTimeout: 15 * time.Millisecond}
}

func TestFacadeQuickstart(t *testing.T) {
	cluster, err := luckystore.New(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	if err := cluster.Writer().Write("hello"); err != nil {
		t.Fatal(err)
	}
	got, err := cluster.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "hello" || got.TS != 1 {
		t.Errorf("Read() = %v", got)
	}
	if !cluster.Writer().LastMeta().Fast || !cluster.Reader(0).LastMeta().Fast() {
		t.Error("lucky ops not fast through the facade")
	}
}

func TestFacadeBottomAndValidation(t *testing.T) {
	if !luckystore.Bottom().IsBottom() {
		t.Error("Bottom() not bottom")
	}
	if err := luckystore.ValidateConfig(luckystore.Config{T: 1, B: 2}); err == nil {
		t.Error("invalid config accepted")
	}
	if err := luckystore.ValidateConfig(quickCfg()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cluster, err := luckystore.New(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Writer().Write(""); !errors.Is(err, luckystore.ErrBottomValue) {
		t.Errorf("Write(⊥) = %v", err)
	}
}

func TestFacadeByzantineOptions(t *testing.T) {
	cluster, err := luckystore.New(quickCfg(),
		luckystore.WithForgingServer(0, 999, "forged"))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Writer().Write("real"); err != nil {
		t.Fatal(err)
	}
	got, err := cluster.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "real" {
		t.Errorf("Read() = %v, forged value leaked", got)
	}
}

// A server option naming a server outside [0, S) is refused: dropping
// it would run an all-honest cluster under a test that believes one
// server is Byzantine or crashed.
func TestFacadeRejectsOutOfRangeServerOptions(t *testing.T) {
	cfg := luckystore.Config{T: 1, B: 1, NumReaders: 1} // S = 4
	for name, opt := range map[string]luckystore.Option{
		"forging 7":  luckystore.WithForgingServer(7, 99, "forged"),
		"mute 4":     luckystore.WithMuteServer(cfg.S()),
		"crashed -1": luckystore.WithCrashedServer(-1),
		"crashed 4":  luckystore.WithCrashedServer(cfg.S()),
	} {
		if c, err := luckystore.New(cfg, opt); err == nil {
			c.Close()
			t.Errorf("%s: New accepted a server outside [0,%d)", name, cfg.S())
		}
	}
	c, err := luckystore.New(cfg, luckystore.WithForgingServer(cfg.S()-1, 99, "forged"), luckystore.WithCrashedServer(0))
	if err != nil {
		t.Fatalf("in-range options refused: %v", err)
	}
	c.Close()
}

func TestFacadeCrashedAndMute(t *testing.T) {
	cluster, err := luckystore.New(quickCfg(),
		luckystore.WithCrashedServer(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Writer().Write("v"); err != nil {
		t.Fatal(err)
	}
	if !cluster.Writer().LastMeta().Fast {
		t.Error("write not fast despite one crash within fw")
	}

	c2, err := luckystore.New(quickCfg(), luckystore.WithMuteServer(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Writer().Write("v"); err != nil {
		t.Fatal(err)
	}
	got, err := c2.Reader(1).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "v" {
		t.Errorf("Read() = %v", got)
	}
}

func TestFacadeStaleAndLiar(t *testing.T) {
	cluster, err := luckystore.New(quickCfg(),
		luckystore.WithStaleServer(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Writer().Write("v"); err != nil {
		t.Fatal(err)
	}
	got, err := cluster.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.IsBottom() {
		t.Error("stale server dragged read to ⊥")
	}

	c2, err := luckystore.New(quickCfg(), luckystore.WithRandomLiarServer(4, 7))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Writer().Write("v2"); err != nil {
		t.Fatal(err)
	}
	got, err = c2.Reader(0).Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "v2" {
		t.Errorf("Read() = %v", got)
	}
}

func TestFacadeTCPDeployment(t *testing.T) {
	cfg := luckystore.Config{T: 1, B: 0, Fw: 1, NumReaders: 1,
		RoundTimeout: 50 * time.Millisecond}
	addrs := make([]string, cfg.S())
	for i := range addrs {
		srv, err := luckystore.ListenTCP(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if srv.ID() != luckystore.ServerID(i) {
			t.Errorf("server id = %s", srv.ID())
		}
		addrs[i] = srv.Addr()
	}
	servers := luckystore.ServerAddrs(addrs)

	w, wClose, err := luckystore.NewTCPWriter(cfg, servers)
	if err != nil {
		t.Fatal(err)
	}
	defer wClose.Close()
	if err := w.Write("tcp-value"); err != nil {
		t.Fatal(err)
	}

	r, rClose, err := luckystore.NewTCPReader(cfg, 0, servers)
	if err != nil {
		t.Fatal(err)
	}
	defer rClose.Close()
	got, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got.Val != "tcp-value" {
		t.Errorf("Read() = %v", got)
	}
}

func TestFacadeTCPValidation(t *testing.T) {
	cfg := quickCfg()
	if _, _, err := luckystore.NewTCPWriter(cfg, nil); err == nil {
		t.Error("writer accepted empty address map")
	}
	if _, _, err := luckystore.NewTCPReader(luckystore.Config{T: -1}, 0, nil); err == nil {
		t.Error("reader accepted invalid config")
	}
}
