package chaos

import (
	"testing"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/storage"
	"luckystore/internal/types"
)

// TestDeploymentSurface pins what every deployment kind exposes to the
// engine: its shape, its network, its writer identities, which fault
// actions it honors, and which consistency contract it checks.
func TestDeploymentSurface(t *testing.T) {
	const (
		noNet   = "no simulated network"
		noFleet = "deployment cannot rebalance"
	)
	type want struct {
		net                          bool
		writers                      int
		partition, disk, join, leave string // "" = applied, else the skip reason
		regular                      bool   // checks regularity, not atomicity
	}
	wants := map[string]want{
		"core":      {net: true, writers: 2, join: noFleet, leave: noFleet},
		"kv":        {net: true, writers: 2, join: noFleet, leave: noFleet},
		"tcpkv":     {writers: 2, partition: noNet, join: noFleet, leave: noFleet},
		"router":    {writers: 2, partition: noNet},
		"tcprouter": {writers: 2, partition: noNet},
		"regular":   {net: true, writers: 1, join: noFleet, leave: noFleet, regular: true},
	}
	if len(Kinds()) != len(wants) {
		t.Fatalf("Kinds() = %v, want the %d kinds tabled here", Kinds(), len(wants))
	}
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			w, ok := wants[kind]
			if !ok {
				t.Fatalf("kind %q not tabled", kind)
			}
			d, err := Open(kind, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if d.Kind() != kind {
				t.Errorf("Kind() = %q", d.Kind())
			}
			if s := d.Servers(); s != 6 {
				t.Errorf("Servers() = %d, want 6", s)
			}
			if tt, b := d.Budget(); tt != 2 || b != 1 {
				t.Errorf("Budget() = (%d, %d), want (2, 1)", tt, b)
			}
			if got := d.Net() != nil; got != w.net {
				t.Errorf("Net() non-nil = %v, want %v", got, w.net)
			}
			if writers := d.NumWriters(); writers != w.writers {
				t.Errorf("writer identities = %d, want %d", writers, w.writers)
			}

			p := SchedParams{Servers: d.Servers(), T: 2, B: 1, Readers: 2, Writers: w.writers}
			for _, c := range []struct {
				a    Action
				skip string
			}{
				{Action{Kind: ActPartition, Groups: isolate(p, 1)}, w.partition},
				{Action{Kind: ActDiskFault, Server: 0, Disk: storage.FaultTornWrite}, w.disk},
				{Action{Kind: ActJoinCluster}, w.join},
				{Action{Kind: ActRemoveCluster}, w.leave},
			} {
				out := apply(d, Event{Action: c.a}, newGuard(2, 1))
				if out.Err != "" || out.Applied != (c.skip == "") || out.Skipped != c.skip {
					t.Errorf("%s: applied=%v skipped=%q err=%q, want skipped=%q",
						c.a.Kind, out.Applied, out.Skipped, out.Err, c.skip)
				}
			}

			vs := d.Check(newOldInversion())
			if w.regular && len(vs) != 0 {
				t.Errorf("regular deployment flagged a regular history: %v", vs)
			}
			if !w.regular && len(vs) == 0 {
				t.Error("atomic deployment accepted a new-old inversion")
			}
		})
	}
}

// newOldInversion is a history that is regular but not atomic: two
// reads overlap a long write of ⟨2⟩, and the later read returns the
// older ⟨1⟩ after the earlier one returned ⟨2⟩.
func newOldInversion() []checker.Op {
	at := func(ms int) time.Time { return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond) }
	tagged := func(ts types.TS, v types.Value) types.Tagged { return types.Tagged{TS: ts, Val: v} }
	return []checker.Op{
		{ID: 1, Client: types.WriterID(), Kind: checker.KindWrite, Value: tagged(1, "a"), Invoke: at(1), Return: at(2)},
		{ID: 2, Client: types.WriterID(), Kind: checker.KindWrite, Value: tagged(2, "b"), Invoke: at(3), Return: at(20)},
		{ID: 3, Client: types.ReaderID(0), Kind: checker.KindRead, Value: tagged(2, "b"), Invoke: at(4), Return: at(5)},
		{ID: 4, Client: types.ReaderID(1), Kind: checker.KindRead, Value: tagged(1, "a"), Invoke: at(6), Return: at(7)},
	}
}
