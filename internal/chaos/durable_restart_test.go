package chaos

// PR 8 regression pin for the fleet deployments: a disk-backed server
// that rejoins via Restart must serve its pre-crash stamps. The test
// goes beyond the budgeted schedules — it kills EVERY server of every
// cluster and restarts them all, so nothing the reborn fleet serves
// can come from warm memory: it is storage recovery or nothing.

import (
	"fmt"
	"testing"

	"luckystore/internal/types"
)

func testFleetRebirthFromStorage(t *testing.T, kind string) {
	d, err := Open(kind, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Enough keys to span both clusters of the fleet.
	keys := make([]string, 10)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	for round := 1; round <= 2; round++ {
		for _, k := range keys {
			v := types.Value(fmt.Sprintf("v%d-%s", round, k))
			if _, _, err := d.Write(0, k, v); err != nil {
				t.Fatalf("write %s round %d: %v", k, round, err)
			}
		}
	}
	want := make(map[string]types.Tagged, len(keys))
	for _, k := range keys {
		got, _, err := d.Read(0, k)
		if err != nil {
			t.Fatalf("pre-crash read %s: %v", k, err)
		}
		want[k] = got
	}

	// Total fleet death, then rebirth. Direct adapter calls, not a
	// schedule: the budget guard rightly forbids this shape, but with no
	// traffic in flight it is exactly a datacenter power cycle.
	for i := 0; i < d.Servers(); i++ {
		if err := d.Crash(i); err != nil {
			t.Fatalf("crash %d: %v", i, err)
		}
	}
	for i := 0; i < d.Servers(); i++ {
		if err := d.Restart(i, false); err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
	}

	for _, k := range keys {
		got, _, err := d.Read(0, k)
		if err != nil {
			t.Fatalf("post-rebirth read %s: %v", k, err)
		}
		if got != want[k] {
			t.Errorf("post-rebirth %s = %+v, want pre-crash %+v", k, got, want[k])
		}
	}
	// The writer client never died, so its sequence numbers carry on
	// above the recovered stamps: the reborn fleet must accept them.
	if _, _, err := d.Write(0, keys[0], "post-rebirth"); err != nil {
		t.Fatalf("post-rebirth write: %v", err)
	}
	got, _, err := d.Read(0, keys[0])
	if err != nil || got.Val != "post-rebirth" {
		t.Fatalf("post-rebirth rw cycle = %+v, %v", got, err)
	}
}

func TestRouterFleetRebirthFromStorage(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet rebirth skipped in -short mode")
	}
	testFleetRebirthFromStorage(t, "router")
}

func TestTCPRouterFleetRebirthFromStorage(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet rebirth skipped in -short mode")
	}
	testFleetRebirthFromStorage(t, "tcprouter")
}
