package storage_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"luckystore/internal/core"
	"luckystore/internal/keyed"
	"luckystore/internal/node"
	"luckystore/internal/storage"
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

func tagged(seq int, w int, val string) types.Tagged {
	return types.Tagged{TS: types.TS(seq), W: types.WID(w), Val: types.Value(val)}
}

func wMsg(round, seq int, val string) wire.W {
	return wire.W{Round: round, Tag: int64(seq), C: tagged(seq, 0, val)}
}

func coreFactory() storage.Automaton { return core.NewServer() }

// driveServer applies a representative state: three register pairs, a
// frozen slot and a reader timestamp.
func driveServer(t *testing.T, step func(from types.ProcID, m wire.Message)) {
	t.Helper()
	w := types.WriterID()
	r := types.ReaderID(0)
	step(w, wire.PW{TS: 1, PW: tagged(1, 0, "a"), W: types.Bottom()})
	step(w, wMsg(3, 1, "a"))
	step(r, wire.Read{TSR: 2, Round: 2})
	step(w, wire.PW{TS: 2, PW: tagged(2, 0, "b"), W: tagged(1, 0, "a"),
		Frozen: []types.FrozenEntry{{Reader: r, PW: tagged(1, 0, "a"), TSR: 2}}})
	step(w, wMsg(2, 2, "b"))
}

func assertRecovered(t *testing.T, back storage.Backend, want *core.Server) {
	t.Helper()
	got := core.NewServer()
	n, err := storage.Recover(back, got)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if n == 0 {
		t.Fatalf("Recover replayed no records")
	}
	assertSameState(t, want, got)
}

func assertSameState(t *testing.T, want, got *core.Server) {
	t.Helper()
	wpw, ww, wvw := want.State()
	gpw, gw, gvw := got.State()
	if wpw != gpw || ww != gw || wvw != gvw {
		t.Fatalf("state mismatch:\nwant pw=%+v w=%+v vw=%+v\ngot  pw=%+v w=%+v vw=%+v",
			wpw, ww, wvw, gpw, gw, gvw)
	}
	r := types.ReaderID(0)
	if want.FrozenFor(r) != got.FrozenFor(r) {
		t.Fatalf("frozen mismatch: want %+v got %+v", want.FrozenFor(r), got.FrozenFor(r))
	}
	if want.ReaderTS(r) != got.ReaderTS(r) {
		t.Fatalf("readerTS mismatch: want %v got %v", want.ReaderTS(r), got.ReaderTS(r))
	}
}

func backends(t *testing.T) map[string]storage.Backend {
	t.Helper()
	file, err := storage.NewFile(t.TempDir(), coreFactory)
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	return map[string]storage.Backend{
		"memory": storage.NewMemory(coreFactory),
		"file":   file,
	}
}

func TestDurableRecoverRoundTrip(t *testing.T) {
	for name, back := range backends(t) {
		t.Run(name, func(t *testing.T) {
			inner := core.NewServer()
			d := storage.NewDurable(inner, back, types.ServerID(0))
			driveServer(t, func(from types.ProcID, m wire.Message) {
				if out := d.StepAppend(from, m, nil); len(out) == 0 {
					t.Fatalf("step %v: replies withheld (backend error?)", m)
				}
			})
			assertRecovered(t, back, inner)
			if err := back.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

func TestDurableSkipsNonMutating(t *testing.T) {
	back := storage.NewMemory(coreFactory)
	d := storage.NewDurable(core.NewServer(), back, types.ServerID(0))
	// Round-1 READ is the fast path: answered, never logged.
	if out := d.StepAppend(types.ReaderID(0), wire.Read{TSR: 1, Round: 1}, nil); len(out) != 1 {
		t.Fatalf("fast read got %d replies, want 1", len(out))
	}
	if st := back.Stats(); st.Records != 0 {
		t.Fatalf("fast read logged %d records, want 0", st.Records)
	}
	if out := d.StepAppend(types.WriterID(), wMsg(2, 1, "x"), nil); len(out) != 1 {
		t.Fatalf("write got no reply")
	}
	if st := back.Stats(); st.Records != 1 {
		t.Fatalf("write logged %d records, want 1", st.Records)
	}
}

func TestMutating(t *testing.T) {
	cases := []struct {
		m    wire.Message
		want bool
	}{
		{wire.PW{TS: 1}, true},
		{wire.W{Round: 2}, true},
		{wire.ABDWrite{}, true},
		{wire.Read{TSR: 1, Round: 1}, false},
		{wire.Read{TSR: 1, Round: 2}, true},
		{wire.ReadAck{}, false},
		{wire.PWAck{}, false},
		{wire.WAck{}, false},
		{wire.Keyed{Key: "k", Inner: wire.W{Round: 1}}, true},
		{wire.Keyed{Key: "k", Inner: wire.Read{TSR: 1, Round: 1}}, false},
		{wire.Batch{}, false},
	}
	for _, c := range cases {
		if got := storage.Mutating(c.m); got != c.want {
			t.Errorf("Mutating(%T %+v) = %v, want %v", c.m, c.m, got, c.want)
		}
	}
}

func TestFileTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	f, err := storage.NewFile(dir, coreFactory)
	if err != nil {
		t.Fatal(err)
	}
	inner := core.NewServer()
	d := storage.NewDurable(inner, f, types.ServerID(0))
	driveServer(t, func(from types.ProcID, m wire.Message) { d.StepAppend(from, m, nil) })
	recs := f.Stats().Records
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-write leaves a partial frame: simulate with trailing
	// garbage that cannot parse as a frame.
	walPath := filepath.Join(dir, "wal-0.log")
	wal, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Write([]byte{0x00, 0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	reopened, err := storage.NewFile(dir, coreFactory)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer reopened.Close()
	if got := reopened.Stats().Records; got != recs {
		t.Fatalf("after torn-tail fsck got %d records, want %d", got, recs)
	}
	assertRecovered(t, reopened, inner)

	// The fsck physically truncated the tail: a third open sees a clean
	// file of the same size.
	info, err := storage.InspectFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Truncated() || info.Reason != "" {
		t.Fatalf("wal still torn after fsck: %+v", info)
	}
}

func TestFileHalfRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	f, err := storage.NewFile(dir, coreFactory)
	if err != nil {
		t.Fatal(err)
	}
	inner := core.NewServer()
	d := storage.NewDurable(inner, f, types.ServerID(0))
	driveServer(t, func(from types.ProcID, m wire.Message) { d.StepAppend(from, m, nil) })
	recs := f.Stats().Records
	f.Close()

	// Cut the last record in half.
	walPath := filepath.Join(dir, "wal-0.log")
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := storage.NewFile(dir, coreFactory)
	if err != nil {
		t.Fatalf("reopen with half record: %v", err)
	}
	defer reopened.Close()
	if got := reopened.Stats().Records; got != recs-1 {
		t.Fatalf("after cut got %d records, want %d", got, recs-1)
	}
	if _, err := storage.Recover(reopened, core.NewServer()); err != nil {
		t.Fatalf("Recover after truncation: %v", err)
	}
}

func TestCorruptSealedSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	f, err := storage.NewFile(dir, coreFactory, storage.WithCompactEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	d := storage.NewDurable(core.NewServer(), f, types.ServerID(0))
	for i := 1; i <= 20; i++ {
		d.StepAppend(types.WriterID(), wMsg(2, i, "v"), nil)
	}
	if f.Stats().Compactions == 0 {
		t.Fatalf("no compaction after 20 writes with floor 4")
	}
	f.Close()

	// Flip a byte inside the sealed snapshot segment's body.
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.seg"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v (%v)", snaps, err)
	}
	b, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(snaps[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := storage.NewFile(dir, coreFactory); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("reopen with corrupt sealed snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestCompactionBoundsLog(t *testing.T) {
	for name, newBack := range map[string]func() storage.Backend{
		"memory": func() storage.Backend { return storage.NewMemory(coreFactory) },
		"file": func() storage.Backend {
			f, err := storage.NewFile(t.TempDir(), coreFactory, storage.WithCompactEvery(16))
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	} {
		t.Run(name, func(t *testing.T) {
			back := newBack()
			defer back.Close()
			inner := core.NewServer()
			d := storage.NewDurable(inner, back, types.ServerID(0))
			const writes = 2000
			for i := 1; i <= writes; i++ {
				if out := d.StepAppend(types.WriterID(), wMsg(2, i, "vvvvvvvv"), nil); len(out) != 1 {
					t.Fatalf("write %d muted", i)
				}
			}
			st := back.Stats()
			// Live state is one register (a handful of snapshot
			// records); the log must be bounded by the compaction
			// threshold, not by the 2000-write history.
			if st.Records >= writes/2 {
				t.Fatalf("log holds %d records after %d writes: compaction not bounding state", st.Records, writes)
			}
			if name == "file" && st.Compactions == 0 {
				t.Fatalf("file backend never compacted")
			}
			assertRecovered(t, back, inner)
		})
	}
}

func TestWipeIsAmnesiac(t *testing.T) {
	for name, back := range backends(t) {
		t.Run(name, func(t *testing.T) {
			defer back.Close()
			d := storage.NewDurable(core.NewServer(), back, types.ServerID(0))
			driveServer(t, func(from types.ProcID, m wire.Message) { d.StepAppend(from, m, nil) })
			if err := back.Wipe(); err != nil {
				t.Fatalf("Wipe: %v", err)
			}
			if st := back.Stats(); st.Records != 0 {
				t.Fatalf("wipe left %d records", st.Records)
			}
			fresh := core.NewServer()
			if n, err := storage.Recover(back, fresh); err != nil || n != 0 {
				t.Fatalf("Recover after wipe: n=%d err=%v", n, err)
			}
			assertSameState(t, core.NewServer(), fresh)
		})
	}
}

func TestTornWriteFaultThenReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	f, err := storage.NewFile(dir, coreFactory)
	if err != nil {
		t.Fatal(err)
	}
	fb := storage.NewFault(f)
	d := storage.NewDurable(core.NewServer(), fb, types.ServerID(0))
	// committed mirrors only the acknowledged steps: the wrapped inner
	// automaton itself advances on the torn write too (its reply is
	// simply withheld), so it is not the reference for what a client
	// could have observed.
	committed := core.NewServer()
	driveServer(t, func(from types.ProcID, m wire.Message) {
		if out := d.StepAppend(from, m, nil); len(out) == 0 {
			t.Fatalf("pre-fault step muted")
		}
		committed.StepAppend(from, m, nil)
	})

	// The torn write: the record lands half-written, the reply is
	// withheld, the server is mute from here on.
	if err := fb.Arm(storage.FaultTornWrite); err != nil {
		t.Fatal(err)
	}
	if out := d.StepAppend(types.WriterID(), wMsg(2, 99, "never-acked"), nil); len(out) != 0 {
		t.Fatalf("torn write was acknowledged")
	}
	if !fb.Dead() {
		t.Fatalf("fault backend alive after torn write")
	}
	if out := d.StepAppend(types.WriterID(), wMsg(2, 100, "after-death"), nil); len(out) != 0 {
		t.Fatalf("dead server answered")
	}
	fb.Close()

	// kill -9, disk retained: reopen the directory. The torn frame is
	// truncated; every acknowledged record survives.
	reopened, err := storage.NewFile(dir, coreFactory)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer reopened.Close()
	recovered := core.NewServer()
	if _, err := storage.Recover(reopened, recovered); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	assertSameState(t, committed, recovered)
	if _, w, _ := recovered.State(); w.Val == "never-acked" {
		t.Fatalf("unacknowledged torn record resurfaced")
	}
}

func TestFsyncErrorFaultMutesServer(t *testing.T) {
	for name, prov := range map[string]storage.Provider{
		"memory": storage.NewMemProvider(coreFactory),
		"file":   storage.NewDirProvider(t.TempDir(), coreFactory),
	} {
		t.Run(name, func(t *testing.T) {
			fp := storage.NewFaultProvider(prov)
			back, err := fp.Open("s0")
			if err != nil {
				t.Fatal(err)
			}
			fb := back.(*storage.Fault)
			committed := core.NewServer()
			d := storage.NewDurable(committed, fb, types.ServerID(0))
			driveServer(t, func(from types.ProcID, m wire.Message) { d.StepAppend(from, m, nil) })
			fb.Arm(storage.FaultFsyncError)
			if out := d.StepAppend(types.WriterID(), wMsg(2, 50, "lost-sync"), nil); len(out) != 0 {
				t.Fatalf("fsync-failed write was acknowledged")
			}
			if !fb.Dead() {
				t.Fatalf("backend alive after fsync error")
			}
			// The server dies; its restart reopens the storage and
			// recovers: everything acknowledged must be there; the unacked
			// record may or may not be — both are legal, so only assert no
			// regression below committed.
			fb.Close()
			reopened, err := fp.Open("s0")
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			recovered := core.NewServer()
			if _, err := storage.Recover(reopened, recovered); err != nil {
				t.Fatalf("Recover after reopen: %v", err)
			}
			cpw, _, _ := committed.State()
			rpw, _, _ := recovered.State()
			if rpw.Stamp().Less(cpw.Stamp()) {
				t.Fatalf("recovered pw %+v older than committed %+v", rpw, cpw)
			}
		})
	}
}

// TestRecoverRefusesRetiredRecordVersion: a record whose version byte
// is 1 or 2 — a log last written before the codec settled on format 3
// — is corrupt. Recovery stops at it with ErrCorrupt on either backend
// rather than skip it and recover a state missing a committed write.
func TestRecoverRefusesRetiredRecordVersion(t *testing.T) {
	record := func(seq int) []byte {
		p, err := storage.AppendRecord(nil, types.WriterID(), types.ServerID(0), wMsg(2, seq, "v"))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, ver := range []byte{1, 2} {
		for name, back := range backends(t) {
			t.Run(fmt.Sprintf("v%d/%s", ver, name), func(t *testing.T) {
				defer back.Close()
				retired := record(2)
				retired[0] = ver
				for _, p := range [][]byte{record(1), retired, record(3)} {
					if err := back.Append(p); err != nil {
						t.Fatal(err)
					}
				}
				if err := back.Commit(); err != nil {
					t.Fatal(err)
				}
				n, err := storage.Recover(back, core.NewServer())
				if !errors.Is(err, storage.ErrCorrupt) {
					t.Fatalf("err = %v, want ErrCorrupt", err)
				}
				if n != 1 {
					t.Errorf("replayed %d records, want 1: recovery must stop at the retired record", n)
				}
			})
		}
	}
}

func TestShortReadFailsRecoveryLoudly(t *testing.T) {
	back := storage.NewMemory(coreFactory)
	fb := storage.NewFault(back)
	d := storage.NewDurable(core.NewServer(), fb, types.ServerID(0))
	driveServer(t, func(from types.ProcID, m wire.Message) { d.StepAppend(from, m, nil) })

	fb.Arm(storage.FaultShortRead)
	if _, err := storage.Recover(fb, core.NewServer()); err == nil {
		t.Fatalf("short read silently recovered a prefix of committed state")
	}
	// The fault is one-shot: the retry succeeds in full.
	if _, err := storage.Recover(fb, core.NewServer()); err != nil {
		t.Fatalf("retry after short read: %v", err)
	}
}

func TestKeyedDurableRoundTrip(t *testing.T) {
	factory := func() storage.Automaton {
		return keyed.NewShardedServer(1, func() node.Automaton { return core.NewServer() })
	}
	f, err := storage.NewFile(t.TempDir(), factory, storage.WithCompactEvery(8))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inner := keyed.NewShardedServer(4, func() node.Automaton { return core.NewServer() })
	// Wrap each shard, sharing the backend — the production shape.
	shards := inner.Shards()
	durables := make([]*storage.Durable, len(shards))
	for i, sh := range shards {
		durables[i] = storage.NewDurable(sh, f, types.ServerID(0))
	}
	route := inner.Route()
	stepKeyed := func(key string, from types.ProcID, m wire.Message) {
		km := wire.Keyed{Key: key, Inner: m}
		durables[route(km)].StepAppend(from, km, nil)
	}
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i, k := range keys {
		for seq := 1; seq <= 5+i; seq++ {
			stepKeyed(k, types.WriterID(), wMsg(2, seq, k))
		}
	}

	recovered := keyed.NewShardedServer(4, func() node.Automaton { return core.NewServer() })
	if n, err := storage.Recover(f, recovered); err != nil || n == 0 {
		t.Fatalf("Recover: n=%d err=%v", n, err)
	}
	if got, want := recovered.Regs(), len(keys); got != want {
		t.Fatalf("recovered %d registers, want %d", got, want)
	}
	// Reads against the recovered automaton must serve each key's last
	// written pair.
	for i, k := range keys {
		out := recovered.StepAppend(types.ReaderID(0), wire.Keyed{Key: k, Inner: wire.Read{TSR: 100, Round: 1}}, nil)
		if len(out) != 1 {
			t.Fatalf("key %q: no read reply", k)
		}
		ack := out[0].Msg.(wire.Keyed).Inner.(wire.ReadAck)
		if want := types.TS(5 + i); ack.W.TS != want || ack.W.Val != types.Value(k) {
			t.Fatalf("key %q recovered w=%+v, want ts=%d val=%q", k, ack.W, want, k)
		}
	}
}

// A Durable answers node.NonBlocking as the automaton it wraps does, but
// only over a backend that says its commit never fsyncs: a StepPool
// steps a durable keyed shard on the caller's goroutine over a SyncNone
// file, and on its worker over a syncing file, over a backend that does
// not say (memory, a Fault wrapper), or around an automaton without the
// marker.
func TestDurableNonBlockingFollowsInnerAndBackend(t *testing.T) {
	file := func(opts ...storage.FileOption) func() storage.Backend {
		return func() storage.Backend {
			f, err := storage.NewFile(t.TempDir(), nil, opts...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = f.Close() })
			return f
		}
	}
	backends := []struct {
		name       string
		open       func() storage.Backend
		saysNoSync bool
	}{
		{"memory", func() storage.Backend { return storage.NewMemory(nil) }, false},
		{"file SyncNone", file(storage.WithSyncMode(storage.SyncNone)), true},
		{"file SyncBatched", file(), false},
		{"file SyncEach", file(storage.WithSyncMode(storage.SyncEach)), false},
		{"fault over memory", func() storage.Backend { return storage.NewFault(storage.NewMemory(nil)) }, false},
	}
	inners := []struct {
		name   string
		inner  func() node.Automaton
		marker bool
	}{
		{"keyed shard", func() node.Automaton {
			return keyed.NewShardedServer(1, func() node.Automaton { return core.NewServer() }).Shards()[0]
		}, true},
		// The embedded interface hides core.Server's own marker.
		{"no marker", func() node.Automaton { return struct{ node.Automaton }{core.NewServer()} }, false},
	}
	for _, b := range backends {
		for _, in := range inners {
			d := storage.NewDurable(in.inner(), b.open(), types.ServerID(0))
			p := node.NewStepPool([]node.Automaton{d}, func(wire.Message) int { return 0 })
			read := wire.Keyed{Key: "k", Inner: wire.Read{TSR: 1, Round: 1}}
			stepped := p.TryStep(types.ReaderID(0), read, func([]transport.Outgoing) {})
			p.Close()
			if want := in.marker && b.saysNoSync; stepped != want {
				t.Errorf("%s over %s: TryStep on its Durable = %v, want %v", in.name, b.name, stepped, want)
			}
		}
	}
}

func TestProvidersReopenSemantics(t *testing.T) {
	t.Run("memory-same-instance", func(t *testing.T) {
		p := storage.NewMemProvider(coreFactory)
		b1, _ := p.Open("s0")
		d := storage.NewDurable(core.NewServer(), b1, types.ServerID(0))
		d.StepAppend(types.WriterID(), wMsg(2, 1, "x"), nil)
		b2, _ := p.Open("s0")
		if b2.Stats().Records != 1 {
			t.Fatalf("reopened memory backend lost records")
		}
	})
	t.Run("memory-reopen-after-close", func(t *testing.T) {
		p := storage.NewMemProvider(coreFactory)
		b1, _ := p.Open("s0")
		d := storage.NewDurable(core.NewServer(), b1, types.ServerID(0))
		d.StepAppend(types.WriterID(), wMsg(2, 1, "x"), nil)
		if err := b1.Close(); err != nil { // the process crashed
			t.Fatal(err)
		}
		b2, _ := p.Open("s0") // and restarted
		n := 0
		if err := b2.Replay(func([]byte) error { n++; return nil }); err != nil || n != 1 {
			t.Fatalf("replay after reopen = %d records, %v; want 1, nil", n, err)
		}
		if err := b2.Append(nil); err != nil {
			t.Fatalf("append after reopen: %v", err)
		}
	})
	t.Run("dir-reopen-runs-fsck", func(t *testing.T) {
		p := storage.NewDirProvider(t.TempDir(), coreFactory)
		b1, err := p.Open("s0")
		if err != nil {
			t.Fatal(err)
		}
		d := storage.NewDurable(core.NewServer(), b1, types.ServerID(0))
		d.StepAppend(types.WriterID(), wMsg(2, 1, "x"), nil)
		b1.Close()
		b2, err := p.Open("s0")
		if err != nil {
			t.Fatal(err)
		}
		defer b2.Close()
		if b2.Stats().Records != 1 {
			t.Fatalf("reopened file backend lost records")
		}
	})
}
