package storage

import (
	"fmt"
	"sync"
)

// Fault kinds accepted by (*Fault).Arm and the chaos disk-fault
// action.
const (
	// FaultTornWrite kills the disk mid-write: the armed record's
	// frame lands torn on the medium (file backend) or not at all
	// (memory backend) and every later operation fails. Recovery
	// truncates the torn tail; only unacknowledged data is lost.
	FaultTornWrite = "torn-write"
	// FaultFsyncError fails the commit after the write was buffered:
	// the record may or may not survive — exactly the promise fsync
	// breaks — and the backend is dead until healed.
	FaultFsyncError = "fsync-error"
	// FaultShortRead fails the next Replay partway through. Recovery
	// must surface the error rather than silently acting on a prefix
	// of committed state.
	FaultShortRead = "short-read"
)

// Fault wraps a Backend with schedule-driven fault injection. Chaos
// deployments arm faults on a running server's backend at seeded
// times; unit tests arm them directly. After a write-path fault fires the wrapper is dead — every
// operation fails, muting the Durable stepper above it — for good: a
// restarted server reopens its storage through the provider, which
// wraps what the medium kept anew (a file backend's reopen runs the
// real fsck path).
type Fault struct {
	mu         sync.Mutex
	inner      Backend
	armed      string
	shortReads int
	dead       bool
}

var _ Backend = (*Fault)(nil)

// tearAppender is the file backend's hook for medium-level torn
// writes; backends without one (memory) drop the record instead,
// which is the same observable outcome after recovery.
type tearAppender interface{ TearNextAppend() }

// NewFault wraps a backend; no faults are armed initially.
func NewFault(inner Backend) *Fault { return &Fault{inner: inner} }

// Arm schedules a one-shot fault. Write-path kinds replace any
// previously armed kind; short-read arms stack.
func (f *Fault) Arm(kind string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch kind {
	case FaultTornWrite, FaultFsyncError:
		f.armed = kind
	case FaultShortRead:
		f.shortReads++
	default:
		return fmt.Errorf("storage: unknown fault kind %q", kind)
	}
	return nil
}

// Dead reports whether a write-path fault has fired.
func (f *Fault) Dead() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead
}

// Append implements Backend.
func (f *Fault) Append(payload []byte) error {
	f.mu.Lock()
	if f.dead {
		f.mu.Unlock()
		return ErrDiskFault
	}
	if f.armed == FaultTornWrite {
		f.armed = ""
		f.dead = true
		if t, ok := f.inner.(tearAppender); ok {
			t.TearNextAppend()
			err := f.inner.Append(payload)
			f.mu.Unlock()
			if err != nil {
				return err
			}
			return f.inner.Commit() // flushes the torn frame, fails sticky
		}
		// No medium to tear: the record simply never hits it.
		f.mu.Unlock()
		return ErrDiskFault
	}
	f.mu.Unlock()
	return f.inner.Append(payload)
}

// Commit implements Backend.
func (f *Fault) Commit() error {
	f.mu.Lock()
	if f.dead {
		f.mu.Unlock()
		return ErrDiskFault
	}
	if f.armed == FaultFsyncError {
		// The write was buffered but the sync fails: the backend has
		// the record (it may survive, like data in a page cache that
		// did reach the platter) yet nothing is promised — and nothing
		// is acknowledged, because this error kills the server.
		f.armed = ""
		f.dead = true
		f.mu.Unlock()
		return ErrDiskFault
	}
	f.mu.Unlock()
	return f.inner.Commit()
}

// Replay implements Backend. An armed short-read delivers roughly
// half the records, then fails — recovery must refuse the prefix.
func (f *Fault) Replay(fn func(payload []byte) error) error {
	f.mu.Lock()
	short := f.shortReads > 0
	if short {
		f.shortReads--
	}
	f.mu.Unlock()
	if !short {
		return f.inner.Replay(fn)
	}
	total := f.inner.Stats().Records
	seen := 0
	err := f.inner.Replay(func(p []byte) error {
		if seen >= total/2 {
			return fmt.Errorf("%w: short read after %d of %d records", ErrDiskFault, seen, total)
		}
		seen++
		return fn(p)
	})
	return err
}

// Wipe implements Backend.
func (f *Fault) Wipe() error {
	f.mu.Lock()
	dead := f.dead
	f.mu.Unlock()
	if dead {
		return ErrDiskFault
	}
	return f.inner.Wipe()
}

// Stats implements Backend.
func (f *Fault) Stats() Stats { return f.inner.Stats() }

// Close implements Backend.
func (f *Fault) Close() error { return f.inner.Close() }
