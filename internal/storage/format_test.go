package storage_test

// On-disk format pins. The WAL container layout (DESIGN.md §11) is a
// compatibility surface: a new binary must recover directories written
// by the old one, so the bytes are pinned golden — any change here is
// a format break and needs a new magic, not a test update.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"luckystore/internal/core"
	"luckystore/internal/keyed"
	"luckystore/internal/node"
	"luckystore/internal/storage"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// goldenWAL is the exact file a backend writes for two committed
// payloads "hello" and "wal-golden":
//
//	8-byte magic "LSWAL1\n\x00"
//	u32be length | u32be CRC-32C(payload) | payload, per record
const goldenWAL = "4c5357414c310a00" + // magic
	"00000005" + "9a71bb4c" + "68656c6c6f" + // |"hello"| crc32c "hello"
	"0000000a" + "2682ec84" + "77616c2d676f6c64656e" // |"wal-golden"| crc32c "wal-golden"

func goldenBytes(t *testing.T) []byte {
	t.Helper()
	b, err := hex.DecodeString(goldenWAL)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenWALBytesWritten(t *testing.T) {
	dir := t.TempDir()
	back, err := storage.NewFile(dir, coreFactory)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"hello", "wal-golden"} {
		if err := back.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := back.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := back.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "wal-0.log"))
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenBytes(t); !bytes.Equal(got, want) {
		t.Errorf("WAL bytes drifted from the pinned format:\ngot  %x\nwant %x", got, want)
	}
}

// The inverse pin: a directory holding exactly the golden bytes —
// bytes a previous binary version could have written — must replay.
func TestGoldenWALBytesReplayed(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-0.log"), goldenBytes(t), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := storage.NewFile(dir, coreFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	var got []string
	err = back.Replay(func(p []byte) error { got = append(got, string(p)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "hello" || got[1] != "wal-golden" {
		t.Errorf("replayed %q, want [hello wal-golden]", got)
	}
}

// FuzzReplayLog throws arbitrary bytes at the recovery path as an
// active log: whatever a corrupted disk holds, opening it must not
// panic, a forged length prefix must not drive a giant allocation
// (MaxRecordSize), and the fsck must be idempotent — the records and
// the verdict after the first open's truncation are what every later
// open sees.
func FuzzReplayLog(f *testing.F) {
	seed, err := hex.DecodeString(goldenWAL)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)                                                   // clean log
	f.Add(seed[:len(seed)-3])                                     // torn tail mid-record
	f.Add(seed[:8])                                               // magic only
	f.Add([]byte{})                                               // empty file
	f.Add([]byte("LSWAL1\n\x00\xff\xff\xff\xff\xff\xff\xff\xff")) // forged huge length
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)-1] ^= 0x01 // CRC mismatch in the last record
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-0.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := storage.NewFile(dir, coreFactory)
		if err != nil {
			return // refusing damaged input loudly is a valid outcome
		}
		n1, err1 := storage.Recover(back, core.NewServer())
		if cerr := back.Close(); cerr != nil {
			t.Fatalf("close after recovery: %v", cerr)
		}

		// The first open physically truncated any torn tail; a second
		// open of the same directory must see a clean file with the
		// identical replayable prefix.
		back2, err := storage.NewFile(dir, coreFactory)
		if err != nil {
			t.Fatalf("reopen after fsck refused: %v", err)
		}
		defer back2.Close()
		n2, err2 := storage.Recover(back2, core.NewServer())
		if n2 != n1 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("fsck not idempotent: first open replayed %d (err=%v), second %d (err=%v)",
				n1, err1, n2, err2)
		}
	})
}

// appendFrameRef is the per-record snapshot encoder compaction used
// before it framed the whole segment in one arena: length, CRC-32C,
// payload. It stays here as the reference the sealed segment's bytes
// are held to.
func appendFrameRef(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(buf, payload...)
}

// TestGoldenSnapshotSegment: the segment a compaction seals is
// byte-identical to the magic followed by each snapshot record of the
// same state, encoded and framed one at a time.
func TestGoldenSnapshotSegment(t *testing.T) {
	factory := func() storage.Automaton {
		return keyed.NewShardedServer(1, func() node.Automaton { return core.NewServer() })
	}
	dir := t.TempDir()
	const tail = 8
	f, err := storage.NewFile(dir, factory, storage.WithCompactEvery(tail))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mirror := factory()
	// tail+1 records overflow the floor: the last Append compacts.
	for i := 0; i <= tail; i++ {
		key := string(rune('a' + i%3))
		m := wire.Keyed{Key: key, Inner: wire.PW{TS: types.TS(i + 1), PW: tagged(i+1, i%2, key),
			W: tagged(i, i%2, "prev"), Frozen: []types.FrozenEntry{{Reader: types.ReaderID(i % 2), PW: tagged(i, 0, "f"), TSR: 1}}}}
		p, err := storage.AppendRecord(nil, types.WriterIDN(i%2), types.ServerID(0), m)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Append(p); err != nil {
			t.Fatal(err)
		}
		mirror.StepAppend(types.WriterIDN(i%2), m, nil)
	}
	if st := f.Stats(); st.Compactions != 1 || st.TailRecords != 0 || st.Records < 3 {
		t.Fatalf("stats %+v, want one compaction, an empty tail and a record per key", st)
	}
	want := []byte("LSWAL1\n\x00")
	if err := mirror.SnapshotRecords(func(from types.ProcID, m wire.Message) error {
		p, err := storage.AppendRecord(nil, from, types.ServerID(0), m)
		want = appendFrameRef(want, p)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "snap-1.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sealed segment differs from the per-record encoding:\ngot  %x\nwant %x", got, want)
	}
	if st := f.Stats(); st.Bytes != int64(len(want)) {
		t.Errorf("Stats.Bytes = %d, want the segment's %d", st.Bytes, len(want))
	}
}
