package experiments

import (
	"strings"
	"testing"
)

func TestIDsOrderedAndComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 15 {
		t.Fatalf("got %d experiments, want 15: %v", len(ids), ids)
	}
	if ids[0] != "E1" || ids[1] != "E2" || ids[9] != "E10" || ids[14] != "E16" {
		t.Errorf("ids not numerically ordered: %v", ids)
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("E99"); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

// Each experiment runs and its measured shape matches the paper.
// They are exercised individually so a failure names its experiment.

func runAndCheck(t *testing.T, id string) {
	t.Helper()
	res, err := Run(id)
	if err != nil {
		t.Fatalf("%s harness error: %v", id, err)
	}
	if res.ID != id {
		t.Errorf("result id = %s, want %s", res.ID, id)
	}
	if !res.Pass {
		t.Errorf("%s measured shape does not match the paper:\n%s", id, res)
	}
	out := res.String()
	for _, frag := range []string{id, "Claim:", "PASS"} {
		if !res.Pass && frag == "PASS" {
			continue
		}
		if !strings.Contains(out, frag) {
			t.Errorf("%s rendering missing %q:\n%s", id, frag, out)
		}
	}
}

func TestE1FastWrites(t *testing.T)    { runAndCheck(t, "E1") }
func TestE2FastReads(t *testing.T)     { runAndCheck(t, "E2") }
func TestE3SlowPaths(t *testing.T)     { runAndCheck(t, "E3") }
func TestE4Tradeoff(t *testing.T)      { runAndCheck(t, "E4") }
func TestE5UpperBound(t *testing.T)    { runAndCheck(t, "E5") }
func TestE6TradingReads(t *testing.T)  { runAndCheck(t, "E6") }
func TestE7WriteBound(t *testing.T)    { runAndCheck(t, "E7") }
func TestE8TwoPhase(t *testing.T)      { runAndCheck(t, "E8") }
func TestE9Regular(t *testing.T)       { runAndCheck(t, "E9") }
func TestE10Ghost(t *testing.T)        { runAndCheck(t, "E10") }
func TestE11Baselines(t *testing.T)    { runAndCheck(t, "E11") }
func TestE12Latency(t *testing.T)      { runAndCheck(t, "E12") }
func TestE13MultiWriter(t *testing.T)  { runAndCheck(t, "E13") }
func TestE14MWReads(t *testing.T)      { runAndCheck(t, "E14") }
func TestE16SpecFastPath(t *testing.T) { runAndCheck(t, "E16") }

func TestRoundDist(t *testing.T) {
	hist, fast := roundDist(map[int]int{1: 9, 3: 1})
	if hist != "1r:9 3r:1" || fast != "0.90" {
		t.Errorf("roundDist = %q %q, want \"1r:9 3r:1\" \"0.90\"", hist, fast)
	}
	if hist, fast := roundDist(map[int]int{}); hist != "(empty)" || fast != "0.00" {
		t.Errorf("empty roundDist = %q %q", hist, fast)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("demo", "name", "rounds")
	tbl.AddRow("fast-write", "1")
	tbl.AddRow("slow", "3")
	out := tbl.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "fast-write") {
		t.Errorf("rendered table missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("got %d lines, want 5:\n%s", len(lines), out)
	}
	// Padded row: short rows fill with empty cells without panic.
	tbl.AddRow("only-one")
	_ = tbl.String()

	md := tbl.Markdown()
	if !strings.Contains(md, "| name | rounds |") {
		t.Errorf("markdown header missing:\n%s", md)
	}
}

func TestHelpers(t *testing.T) {
	if Itoa(42) != "42" {
		t.Error("Itoa broken")
	}
	if Bool(true) != "yes" || Bool(false) != "no" {
		t.Error("Bool broken")
	}
}
