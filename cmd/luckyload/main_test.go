package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"luckystore"
)

func decodeReport(t *testing.T, stdout *bytes.Buffer) sloReport {
	t.Helper()
	var rep sloReport
	if err := json.NewDecoder(stdout).Decode(&rep); err != nil {
		t.Fatalf("decode artifact: %v", err)
	}
	return rep
}

// TestSelfhostClosedLoop runs the harness against an in-process KV
// deployment and checks the calm row carries real traffic numbers.
func TestSelfhostClosedLoop(t *testing.T) {
	var stdout bytes.Buffer
	code := run([]string{"-deploy", "kv", "-duration", "400ms", "-keys", "4", "-seed", "3"}, &stdout)
	if code != 0 {
		t.Fatalf("exit %d, output %s", code, stdout.String())
	}
	rep := decodeReport(t, &stdout)
	if rep.Mode != "selfhost" || rep.Loop != "closed" || len(rep.Rows) != 1 {
		t.Fatalf("report shape: %+v", rep)
	}
	row := rep.Rows[0]
	if row.Phase != "calm" || !row.Clean || row.Result.Ops == 0 {
		t.Fatalf("calm row: %+v", row)
	}
	if row.Result.Throughput <= 0 || row.Result.Latency.P99 <= 0 {
		t.Fatalf("missing SLO numbers: %+v", row.Result)
	}
}

// TestExternalOpenLoopWithScrape spins real TCP servers, drives the
// harness in open-loop mode through OpenKVTCP, and asserts the mid-run
// scrape of its own admin plane sees nonzero client-side metrics.
func TestExternalOpenLoopWithScrape(t *testing.T) {
	cfg := luckystore.Config{T: 1, B: 0, NumReaders: 2,
		RoundTimeout: 100 * time.Millisecond, OpTimeout: 20 * time.Second}
	var addrs []string
	for i := 0; i < cfg.S(); i++ {
		srv, err := luckystore.ListenTCPKV(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}

	var stdout bytes.Buffer
	code := run([]string{
		"-addrs", addrs[0] + "," + addrs[1] + "," + addrs[2],
		"-t", "1", "-b", "0",
		"-loop", "open", "-rate", "500", "-duration", "600ms", "-keys", "4",
		"-admin", "127.0.0.1:0",
	}, &stdout)
	if code != 0 {
		t.Fatalf("exit %d, output %s", code, stdout.String())
	}
	rep := decodeReport(t, &stdout)
	if rep.Mode != "external" || rep.Loop != "open" {
		t.Fatalf("report shape: %+v", rep)
	}
	row := rep.Rows[0]
	if row.Result.Ops == 0 || !row.Clean {
		t.Fatalf("calm row: %+v", row)
	}
	if len(row.Scrapes) != 1 {
		t.Fatalf("expected the self-admin scrape, got %+v", row.Scrapes)
	}
	if s := row.Scrapes[0]; !s.Healthz || !s.MetricsNonzero {
		t.Fatalf("scrape assertion failed: %+v", s)
	}
}

// TestExternalClosedLoopWriters: -writers 2 against an external
// cluster dials both writer identities, and both complete writes.
func TestExternalClosedLoopWriters(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		srv, err := luckystore.ListenTCPKV(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	var stdout bytes.Buffer
	code := run([]string{
		"-addrs", strings.Join(addrs, ","), "-t", "1", "-b", "0",
		"-writers", "2", "-duration", "400ms", "-keys", "4",
	}, &stdout)
	if code != 0 {
		t.Fatalf("exit %d, output %s", code, stdout.String())
	}
	rep := decodeReport(t, &stdout)
	row := rep.Rows[0]
	if rep.Mode != "external" || !row.Clean {
		t.Fatalf("report: %+v", rep)
	}
	for _, w := range []luckystore.ProcID{"w", "w1"} {
		if row.WritesBy[w] == 0 {
			t.Errorf("writer %s completed no writes: %v", w, row.WritesBy)
		}
	}
}

// TestOpenLoopRejectsWriters: the open loop runs one writer per key,
// so asking it for contending writers is a usage error, not a run that
// silently drops them.
func TestOpenLoopRejectsWriters(t *testing.T) {
	var stdout bytes.Buffer
	code := run([]string{"-deploy", "kv", "-loop", "open", "-writers", "2", "-duration", "100ms"}, &stdout)
	if code != 2 || stdout.Len() != 0 {
		t.Fatalf("exit %d with output %q, want usage exit 2 before any traffic", code, stdout.String())
	}
}

// TestChaosOverlayRow checks a chaos scenario adds a second summarized
// row through the shared reporting path.
func TestChaosOverlayRow(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos overlay needs a real schedule window")
	}
	var stdout bytes.Buffer
	code := run([]string{
		"-deploy", "kv", "-duration", "400ms", "-keys", "4",
		"-chaos", "crash-restarts",
	}, &stdout)
	if code != 0 {
		t.Fatalf("exit %d, output %s", code, stdout.String())
	}
	rep := decodeReport(t, &stdout)
	if len(rep.Rows) != 2 {
		t.Fatalf("expected calm + chaos rows: %+v", rep.Rows)
	}
	ch := rep.Rows[1]
	if ch.Phase != "chaos:crash-restarts" || ch.Result.Ops == 0 {
		t.Fatalf("chaos row: %+v", ch)
	}
}
