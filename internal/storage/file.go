package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// On-disk layout. A backend directory holds at most one generation:
//
//	snap-<N>.seg   sealed snapshot segment (absent before the first
//	               compaction)
//	wal-<N>.log    active write-ahead log for generation N
//
// Both start with an 8-byte magic. Each record is framed as
//
//	u32be payload length | u32be CRC-32C of payload | payload
//
// Compaction writes snap-<N+1> (via tmp + atomic rename), creates
// wal-<N+1>, then deletes generation N — in that order, so a crash at
// any point leaves a directory Open can always make sense of: the
// highest complete snapshot wins, its generation's log (created empty
// if the crash hit first) is the tail, everything else is leftover.
//
// The active log's tail may be torn by a crash mid-write: Open scans
// it and truncates at the first bad frame. Torn records were never
// acknowledged (the Durable stepper releases replies only after
// Commit), so truncation loses nothing a client saw. A bad frame in a
// sealed snapshot segment is ErrCorrupt instead — that data was
// committed.
const fileMagic = "LSWAL1\n\x00"

// frameHeaderSize is the per-record framing overhead.
const frameHeaderSize = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SyncMode selects the file backend's fsync policy.
type SyncMode int

const (
	// SyncBatched group-commits: one syncer goroutine writes and
	// fsyncs the shared pending buffer while concurrent committers
	// wait; whoever lands in the batch rides the same fsync. This is
	// the default and the mode that keeps multi-shard servers at one
	// fsync per batch instead of one per record.
	SyncBatched SyncMode = iota
	// SyncEach fsyncs every Commit individually under the backend
	// lock — the no-batching baseline E15 measures against.
	SyncEach
	// SyncNone writes without fsync: durability limited to what the
	// OS page cache survives. For benchmarks isolating fsync cost.
	SyncNone
)

// FileOption configures a file backend.
type FileOption func(*File)

// WithSyncMode sets the fsync policy (default SyncBatched).
func WithSyncMode(m SyncMode) FileOption {
	return func(f *File) { f.mode = m }
}

// WithCompactEvery overrides the compaction trigger floor: the log
// compacts once the tail exceeds max(minTail, 4 × snapshot records).
// Tests use a small floor to force compactions quickly.
func WithCompactEvery(minTail int) FileOption {
	return func(f *File) { f.minTail = minTail }
}

// File is the log-structured file Backend.
type File struct {
	mu   sync.Mutex
	cond *sync.Cond

	dir     string
	factory func() Automaton
	mode    SyncMode
	minTail int

	gen int
	wal *os.File

	snapRecords int
	snapBytes   int64
	walRecords  int   // records flushed to the active log
	walBytes    int64 // framed bytes flushed to the active log

	pending        []byte // framed records not yet written
	pendingRecords int
	lastFrameOff   int    // offset of the last frame in pending, -1 if none
	spare          []byte // flushed buffer awaiting reuse (double-buffer)

	appendSeq  int64 // records ever appended
	durableSeq int64 // records durable
	syncing    bool  // a batched syncer holds the file

	tearNext    bool // fault hook: tear the last pending frame mid-write
	sticky      error
	compactions int64
	closed      bool

	encScratch []byte // compaction/snapshot encode buffer

	met atomic.Pointer[FileMetrics] // nil until SetMetrics
}

// SetMetrics attaches (or detaches, with nil) live instrumentation.
// Safe at any time: writeFlush runs outside the backend lock, so the
// pointer is atomic rather than mu-guarded.
func (f *File) SetMetrics(m *FileMetrics) { f.met.Store(m) }

var _ Backend = (*File)(nil)

func snapName(gen int) string { return fmt.Sprintf("snap-%d.seg", gen) }
func walName(gen int) string  { return fmt.Sprintf("wal-%d.log", gen) }

// NewFile opens (or creates) the file backend in dir, running crash
// recovery on whatever a previous process left behind: leftover
// generations are deleted, the active log's torn tail is truncated at
// the first bad frame, and the snapshot segment is CRC-verified.
// factory builds the private automaton compaction replays into; nil
// disables compaction.
func NewFile(dir string, factory func() Automaton, opts ...FileOption) (*File, error) {
	f := &File{
		dir:          dir,
		factory:      factory,
		mode:         SyncBatched,
		minTail:      defaultMinTail,
		lastFrameOff: -1,
	}
	f.cond = sync.NewCond(&f.mu)
	for _, o := range opts {
		o(f)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := f.open(); err != nil {
		return nil, err
	}
	return f, nil
}

// open scans the directory, picks the live generation, fscks it and
// opens the active log for appending.
func (f *File) open() error {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return err
	}
	snapGen, walGen := -1, -1
	var leftovers []string
	for _, e := range entries {
		name := e.Name()
		var g int
		switch {
		case matchGen(name, "snap-%d.seg", &g):
			if g > snapGen {
				snapGen = g
			}
		case matchGen(name, "wal-%d.log", &g):
			if g > walGen {
				walGen = g
			}
		case filepath.Ext(name) == ".tmp":
			leftovers = append(leftovers, name)
		}
	}
	// The live generation: the highest complete snapshot, or with no
	// snapshot yet, the highest log (0 on a fresh directory).
	f.gen = snapGen
	if f.gen < 0 {
		f.gen = walGen
	}
	if f.gen < 0 {
		f.gen = 0
	}
	for _, e := range entries {
		name := e.Name()
		var g int
		if (matchGen(name, "snap-%d.seg", &g) || matchGen(name, "wal-%d.log", &g)) && g != f.gen {
			leftovers = append(leftovers, name)
		}
	}
	sort.Strings(leftovers)
	for _, name := range leftovers {
		if err := os.Remove(filepath.Join(f.dir, name)); err != nil {
			return err
		}
	}

	if snapGen == f.gen {
		b, err := os.ReadFile(filepath.Join(f.dir, snapName(f.gen)))
		if err != nil {
			return err
		}
		body, ok := stripMagic(b)
		if !ok {
			return fmt.Errorf("%w: %s: bad magic", ErrCorrupt, snapName(f.gen))
		}
		n, validLen, scanErr := scanFrames(body)
		if scanErr != nil || validLen != len(body) {
			return fmt.Errorf("%w: %s: sealed segment damaged at offset %d",
				ErrCorrupt, snapName(f.gen), len(fileMagic)+validLen)
		}
		f.snapRecords, f.snapBytes = n, int64(len(b))
	}

	walPath := filepath.Join(f.dir, walName(f.gen))
	b, err := os.ReadFile(walPath)
	switch {
	case os.IsNotExist(err):
		if err := f.createLog(walPath); err != nil {
			return err
		}
	case err != nil:
		return err
	default:
		body, ok := stripMagic(b)
		keep := int64(0)
		if ok {
			n, validLen, _ := scanFrames(body)
			f.walRecords = n
			f.walBytes = int64(validLen)
			keep = int64(len(fileMagic) + validLen)
		}
		if !ok {
			// The log died before its header hit the disk: nothing in
			// it can be a committed record; start it over.
			return f.createLog(walPath)
		}
		w, err := os.OpenFile(walPath, os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		if keep < int64(len(b)) {
			// Torn tail: drop the partial frame a crash left behind.
			if err := w.Truncate(keep); err != nil {
				w.Close()
				return err
			}
			if err := w.Sync(); err != nil {
				w.Close()
				return err
			}
		}
		if _, err := w.Seek(keep, 0); err != nil {
			w.Close()
			return err
		}
		f.wal = w
	}
	return nil
}

// createLog writes a fresh log file (magic only) and opens it.
func (f *File) createLog(path string) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.WriteString(fileMagic); err != nil {
		w.Close()
		return err
	}
	if f.mode != SyncNone {
		if err := w.Sync(); err != nil {
			w.Close()
			return err
		}
		if err := syncDir(f.dir); err != nil {
			w.Close()
			return err
		}
	}
	f.wal = w
	f.walRecords, f.walBytes = 0, 0
	return nil
}

func matchGen(name, pattern string, g *int) bool {
	var n int
	if _, err := fmt.Sscanf(name, pattern, &n); err != nil {
		return false
	}
	// Sscanf tolerates trailing garbage; rebuild and compare.
	if fmt.Sprintf(pattern, n) != name {
		return false
	}
	*g = n
	return true
}

func stripMagic(b []byte) ([]byte, bool) {
	if len(b) < len(fileMagic) || string(b[:len(fileMagic)]) != fileMagic {
		return nil, false
	}
	return b[len(fileMagic):], true
}

// scanFrames walks framed records, returning how many are valid and
// the byte length of the valid prefix. A non-nil error describes why
// scanning stopped before the end (torn or corrupt frame).
func scanFrames(b []byte) (records, validLen int, err error) {
	off := 0
	for off < len(b) {
		n, adv, ferr := checkFrame(b[off:])
		if ferr != nil {
			return records, off, ferr
		}
		_ = n
		records++
		off += adv
	}
	return records, off, nil
}

// checkFrame validates the frame at the start of b, returning the
// payload and the total frame length.
func checkFrame(b []byte) (payload []byte, frameLen int, err error) {
	if len(b) < frameHeaderSize {
		return nil, 0, fmt.Errorf("short frame header (%d bytes)", len(b))
	}
	n := int(binary.BigEndian.Uint32(b))
	if n == 0 || n > MaxRecordSize {
		return nil, 0, fmt.Errorf("implausible record length %d", n)
	}
	if len(b)-frameHeaderSize < n {
		return nil, 0, fmt.Errorf("truncated record body (%d of %d bytes)", len(b)-frameHeaderSize, n)
	}
	p := b[frameHeaderSize : frameHeaderSize+n]
	want := binary.BigEndian.Uint32(b[4:])
	if crc32.Checksum(p, crcTable) != want {
		return nil, 0, fmt.Errorf("CRC mismatch")
	}
	return p, frameHeaderSize + n, nil
}

// appendFrame frames one payload into buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// Append implements Backend: frames the payload into the pending
// buffer. Amortized zero allocations — the buffer is reused across
// flushes. Triggers compaction when the tail outgrows the snapshot.
func (f *File) Append(payload []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.usableLocked(); err != nil {
		return err
	}
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("storage: record of %d bytes exceeds MaxRecordSize", len(payload))
	}
	f.lastFrameOff = len(f.pending)
	f.pending = appendFrame(f.pending, payload)
	f.pendingRecords++
	f.appendSeq++
	if f.factory != nil && !f.syncing &&
		f.walRecords+f.pendingRecords > compactThreshold(f.minTail, f.snapRecords) {
		return f.compactLocked()
	}
	return nil
}

// Commit implements Backend: returns once every record appended
// before the call is durable. In SyncBatched mode concurrent
// committers share fsyncs — one becomes the syncer, flushes the whole
// pending buffer, and wakes the rest; a committer whose records were
// already covered returns without touching the disk.
func (f *File) Commit() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.usableLocked(); err != nil {
		return err
	}
	if f.mode == SyncEach {
		return f.flushHoldingLock()
	}
	target := f.appendSeq
	for f.durableSeq < target {
		if f.sticky != nil {
			return f.sticky
		}
		if f.syncing {
			f.cond.Wait()
			continue
		}
		if err := f.syncPendingLocked(); err != nil {
			return err
		}
	}
	return nil
}

// CommitSyncs implements Syncing: every mode but SyncNone fsyncs.
func (f *File) CommitSyncs() bool { return f.mode != SyncNone }

// usableLocked reports the sticky/closed state.
func (f *File) usableLocked() error {
	if f.closed {
		return ErrClosed
	}
	return f.sticky
}

// syncPendingLocked becomes the syncer: swaps out the pending buffer,
// releases the lock for the write+fsync, and re-acquires it to
// publish durability. Callers must hold mu with syncing == false.
func (f *File) syncPendingLocked() error {
	buf, recs, tear, lastFrame, target := f.takePendingLocked()
	if len(buf) == 0 && !tear {
		return f.sticky
	}
	f.syncing = true
	f.mu.Unlock()
	err := f.writeFlush(buf, tear, lastFrame)
	f.mu.Lock()
	f.syncing = false
	f.finishFlushLocked(buf, recs, target, err)
	f.cond.Broadcast()
	return err
}

// flushHoldingLock writes and fsyncs pending without releasing mu
// (SyncEach, compaction, Close): simple, serialized, no batching.
func (f *File) flushHoldingLock() error {
	for f.syncing {
		f.cond.Wait()
	}
	if f.sticky != nil {
		return f.sticky
	}
	buf, recs, tear, lastFrame, target := f.takePendingLocked()
	if len(buf) == 0 && !tear {
		return nil
	}
	err := f.writeFlush(buf, tear, lastFrame)
	f.finishFlushLocked(buf, recs, target, err)
	f.cond.Broadcast()
	return err
}

func (f *File) takePendingLocked() (buf []byte, recs int, tear bool, lastFrame int, target int64) {
	buf, recs, tear, lastFrame, target =
		f.pending, f.pendingRecords, f.tearNext, f.lastFrameOff, f.appendSeq
	f.pending = f.spare[:0]
	f.spare = nil
	f.pendingRecords = 0
	f.lastFrameOff = -1
	f.tearNext = false
	return
}

func (f *File) finishFlushLocked(buf []byte, recs int, target int64, err error) {
	f.spare = buf[:0]
	if err != nil {
		f.sticky = err
		return
	}
	f.durableSeq = target
	f.walRecords += recs
	f.walBytes += int64(len(buf))
	if m := f.met.Load(); m != nil {
		m.FlushRecords.ObserveN(int64(recs))
		m.FlushBytes.Add(int64(len(buf)))
	}
}

// writeFlush performs the IO for one flush. With tear set it writes
// the batch cut halfway through its final frame, fsyncs the damage,
// and fails — the injected kill-9 mid-write: earlier records in the
// batch are intact (complete frames, never acknowledged), the last is
// the torn tail recovery must truncate.
func (f *File) writeFlush(buf []byte, tear bool, lastFrame int) error {
	if tear {
		cut := len(buf)
		if lastFrame >= 0 {
			cut = lastFrame + (len(buf)-lastFrame)/2
			if cut <= lastFrame {
				cut = lastFrame + 1
			}
		}
		if _, err := f.wal.Write(buf[:cut]); err != nil {
			return err
		}
		f.wal.Sync()
		return ErrDiskFault
	}
	if _, err := f.wal.Write(buf); err != nil {
		return err
	}
	if f.mode != SyncNone {
		t0 := time.Now()
		if err := f.wal.Sync(); err != nil {
			return err
		}
		if m := f.met.Load(); m != nil {
			m.FsyncLatency.ObserveSince(t0)
		}
	}
	return nil
}

// TearNextAppend arms the torn-write fault: the next flushed batch is
// cut mid-frame and the backend goes sticky-dead, exactly as if the
// process were killed during the write. Used by the Fault wrapper.
func (f *File) TearNextAppend() {
	f.mu.Lock()
	f.tearNext = true
	f.mu.Unlock()
}

// Replay implements Backend: flushes pending, then walks snapshot and
// log records in order. On a freshly opened backend the torn tail has
// already been truncated, so any bad frame here is ErrCorrupt.
func (f *File) Replay(fn func(payload []byte) error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.sticky == nil && f.pendingRecords > 0 {
		if err := f.flushHoldingLock(); err != nil {
			return err
		}
	}
	if f.snapRecords > 0 {
		if err := f.replayFileLocked(snapName(f.gen), fn); err != nil {
			return err
		}
	}
	if f.walRecords > 0 {
		if err := f.replayFileLocked(walName(f.gen), fn); err != nil {
			return err
		}
	}
	return nil
}

func (f *File) replayFileLocked(name string, fn func(payload []byte) error) error {
	b, err := os.ReadFile(filepath.Join(f.dir, name))
	if err != nil {
		return err
	}
	body, ok := stripMagic(b)
	if !ok {
		return fmt.Errorf("%w: %s: bad magic", ErrCorrupt, name)
	}
	// Replay only the fsck'd prefix: bytes past walBytes are writes
	// that raced with this replay (none in practice — replay callers
	// own the backend exclusively).
	off := 0
	for off < len(body) {
		p, adv, ferr := checkFrame(body[off:])
		if ferr != nil {
			return fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, name, len(fileMagic)+off, ferr)
		}
		if err := fn(p); err != nil {
			return err
		}
		off += adv
	}
	return nil
}

// Wipe implements Backend: deletes all records — the amnesiac
// restart. Implemented as a generation bump to an empty log so a
// crash mid-wipe still recovers to a sane (empty or previous) state.
func (f *File) Wipe() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	for f.syncing {
		f.cond.Wait()
	}
	oldGen := f.gen
	hadSnap := f.snapRecords > 0
	f.takePendingLocked() // drop unflushed records
	f.sticky = nil
	if f.wal != nil {
		f.wal.Close()
		f.wal = nil
	}
	f.gen = oldGen + 1
	if err := f.createLog(filepath.Join(f.dir, walName(f.gen))); err != nil {
		f.sticky = err
		return err
	}
	os.Remove(filepath.Join(f.dir, walName(oldGen)))
	if hadSnap {
		os.Remove(filepath.Join(f.dir, snapName(oldGen)))
	}
	f.snapRecords, f.snapBytes = 0, 0
	f.appendSeq, f.durableSeq = 0, 0
	return nil
}

// Stats implements Backend.
func (f *File) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{
		Records:     f.snapRecords + f.walRecords + f.pendingRecords,
		TailRecords: f.walRecords + f.pendingRecords,
		Bytes:       f.snapBytes + f.walBytes + int64(len(f.pending)),
		Compactions: f.compactions,
	}
}

// Close implements Backend: flushes and fsyncs pending records, then
// releases the file — the graceful-shutdown path luckyd takes on
// SIGTERM.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	var err error
	if f.sticky == nil {
		err = f.flushHoldingLock()
		if err == nil && f.mode == SyncNone && f.wal != nil {
			err = f.wal.Sync()
		}
	}
	f.closed = true
	if f.wal != nil {
		if cerr := f.wal.Close(); err == nil {
			err = cerr
		}
		f.wal = nil
	}
	return err
}

// compactLocked seals the current generation into a snapshot segment
// and starts an empty log: flush, replay everything into a private
// automaton from the factory, write snap-(gen+1) via tmp+rename,
// create wal-(gen+1), delete generation gen. Runs synchronously under
// the lock — compaction is rare (every ~max(minTail, 4×state)
// records) and keeping it serialized makes the crash ordering above
// trivially true.
func (f *File) compactLocked() error {
	if err := f.flushHoldingLock(); err != nil {
		return err
	}
	a := f.factory()
	r := replayer{a: a}
	replay := func(name string) error { return f.replayFileLocked(name, r.step) }
	if f.snapRecords > 0 {
		if err := replay(snapName(f.gen)); err != nil {
			f.sticky = err
			return err
		}
	}
	if err := replay(walName(f.gen)); err != nil {
		f.sticky = err
		return err
	}

	newGen := f.gen + 1
	tmp := filepath.Join(f.dir, fmt.Sprintf("snap-%d.tmp", newGen))
	snap, err := os.Create(tmp)
	if err != nil {
		f.sticky = err
		return err
	}
	if _, err := snap.WriteString(fileMagic); err != nil {
		snap.Close()
		os.Remove(tmp)
		f.sticky = err
		return err
	}
	written := 0
	emit := func(from types.ProcID, msg wire.Message) error {
		f.encScratch = f.encScratch[:0]
		var aerr error
		f.encScratch, aerr = AppendRecord(f.encScratch, from, snapshotDest, msg)
		if aerr != nil {
			return aerr
		}
		frame := appendFrame(nil, f.encScratch)
		if _, werr := snap.Write(frame); werr != nil {
			return werr
		}
		written++
		return nil
	}
	if err := a.SnapshotRecords(emit); err != nil {
		snap.Close()
		os.Remove(tmp)
		f.sticky = err
		return err
	}
	if err := snap.Sync(); err != nil {
		snap.Close()
		f.sticky = err
		return err
	}
	if err := snap.Close(); err != nil {
		f.sticky = err
		return err
	}
	sealed := filepath.Join(f.dir, snapName(newGen))
	if err := os.Rename(tmp, sealed); err != nil {
		f.sticky = err
		return err
	}
	if err := syncDir(f.dir); err != nil {
		f.sticky = err
		return err
	}

	oldGen, hadSnap := f.gen, f.snapRecords > 0
	oldWal := f.wal
	f.wal = nil
	f.gen = newGen
	if err := f.createLog(filepath.Join(f.dir, walName(newGen))); err != nil {
		f.sticky = err
		return err
	}
	oldWal.Close()
	os.Remove(filepath.Join(f.dir, walName(oldGen)))
	if hadSnap {
		os.Remove(filepath.Join(f.dir, snapName(oldGen)))
	}
	st, err2 := os.Stat(sealed)
	if err2 != nil {
		f.sticky = err2
		return err2
	}
	f.snapRecords, f.snapBytes = written, st.Size()
	f.compactions++
	if m := f.met.Load(); m != nil {
		m.Compactions.Inc()
	}
	return nil
}

// syncDir fsyncs a directory so renames and creates are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return err
	}
	return cerr
}
