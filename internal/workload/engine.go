package workload

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/types"
)

// ErrMWUnsupported is returned when a workload asks for contending
// writer identities (Continuous.Writers > 1) but the deployment exposes
// only one: a silent single-writer fall-back would make multi-writer
// scenarios pass vacuously. Callers wanting best-effort degradation
// (the chaos matrix) clamp Writers themselves and say so.
var ErrMWUnsupported = errors.New("workload: multi-writer traffic unsupported (deployment exposes a single writer identity)")

// ErrSpecGhost marks the failed-write history entry recorded for a
// speculative pre-write attempt that was NACKed or starved and
// abandoned (OpMeta.Ghost). The pair may linger on servers, so the
// checker must know the stamp was bound — as by a crashed writer —
// without treating the attempt as a completed write.
var ErrSpecGhost = errors.New("speculative pre-write aborted (stamp may linger on servers)")

// ErrOverload marks an arrival the open loop shed because its actor's
// queue was full (the system fell behind the offered rate) or the actor
// had failed. Shed arrivals are recorded as failed ops, surfacing as
// Result.Errors: a harness that drops load unaccounted overstates the
// system it measures.
var ErrOverload = errors.New("workload: open-loop arrival shed (actor queue full)")

// job is one operation an actor is handed: the key it targets and the
// instant it was invoked. A zero instant means "now"; OpenLoop passes
// the arrival, so time queued behind a slow operation counts.
type job struct {
	key string
	at  time.Time
}

// actor is one serial client of the driver: writer identity w on key,
// or reader r (w < 0).
type actor struct {
	w, r int
	key  string
	q    chan job // OpenLoop's arrival queue
	err  error    // the op error that stopped it
}

// engine is the one traffic loop behind Mixed, Continuous and
// OpenLoop; they differ only in the next function handing each actor
// its operations.
type engine struct {
	d         Driver
	keys      []string
	writers   int
	valueSize int
	rec       *checker.Recorder
	actors    []*actor // one per (key, writer), then one per reader

	mu  sync.Mutex
	err error
}

// newEngine resolves the key set (single-register drivers collapse it
// to the unnamed register, an empty one on a multi-key driver to
// DefaultKey) and the writer identities: more than one needs a driver
// with more than one identity (ErrMWUnsupported) and is capped at its
// NumWriters.
func newEngine(d Driver, keys []string, writers, valueSize int) (*engine, error) {
	e := &engine{d: d, keys: keys, writers: 1, valueSize: valueSize, rec: checker.NewRecorder()}
	if !d.MultiKey() {
		e.keys = []string{""}
	} else if len(keys) == 0 {
		e.keys = []string{DefaultKey}
	}
	if writers > 1 {
		if d.NumWriters() <= 1 {
			return e, fmt.Errorf("%w: driver %T, Writers=%d", ErrMWUnsupported, d, writers)
		}
		e.writers = min(writers, d.NumWriters())
	}
	for _, key := range e.keys {
		for w := 0; w < e.writers; w++ {
			e.actors = append(e.actors, &actor{w: w, r: -1, key: key})
		}
	}
	for r := 0; r < d.NumReaders(); r++ {
		e.actors = append(e.actors, &actor{w: -1, r: r})
	}
	return e, nil
}

// run starts every actor and waits for all of them. next blocks until
// actor a's i-th operation (from 1) is due and returns it, or returns
// false to stop a; it runs on a's goroutine. An actor whose operation
// failed runs nothing more: whatever next still hands it is recorded
// as shed. run returns the history and the first operation error.
func (e *engine) run(next func(a *actor, i int) (job, bool)) (*checker.Recorder, error) {
	var wg sync.WaitGroup
	for _, a := range e.actors {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; ; i++ {
				j, ok := next(a, i)
				switch {
				case !ok:
					return
				case a.err != nil:
					e.shed(a, j)
				default:
					e.do(a, j, i)
				}
			}
		}()
	}
	wg.Wait()
	return e.rec, e.err
}

// client returns the history identity and op kind of a's operations.
func (a *actor) client() (types.ProcID, checker.OpKind) {
	if a.w < 0 {
		return types.ReaderID(a.r), checker.KindRead
	}
	return types.WriterIDN(a.w), checker.KindWrite
}

// do runs j as a's i-th operation and records it: the one place an
// operation is timed and recorded. A write carries Value(i), or
// WriterValue(w, i) when identities contend, so values are unique per
// key; a failed write is recorded with that value, and a speculative
// pre-write it abandoned as a failed write at the ghost stamp, so the
// checker accepts reads returning either lingering pair.
func (e *engine) do(a *actor, j job, i int) {
	op := checker.Op{Key: j.key, Invoke: j.at}
	op.Client, op.Kind = a.client()
	if op.Invoke.IsZero() {
		op.Invoke = time.Now()
	}
	var meta OpMeta
	var v types.Value
	switch {
	case a.w < 0:
		op.Value, meta, op.Err = e.d.Read(a.r, j.key)
	case e.writers > 1:
		v = WriterValue(a.w, i, e.valueSize)
		op.Value, meta, op.Err = e.d.Write(a.w, j.key, v)
	default:
		v = Value(i, e.valueSize)
		op.Value, meta, op.Err = e.d.Write(a.w, j.key, v)
	}
	op.Return, op.Rounds, op.Fast = time.Now(), meta.Rounds, meta.Fast
	if op.Err != nil && a.w >= 0 {
		op.Value = types.Tagged{Val: v}
	}
	if !meta.Ghost.IsZero() {
		ghost := op
		ghost.Value = types.Tagged{TS: meta.Ghost.Seq, W: meta.Ghost.Writer, Val: v}
		ghost.Rounds, ghost.Fast, ghost.Err = 0, false, ErrSpecGhost
		e.rec.Add(ghost)
	}
	e.rec.Add(op)
	if op.Err != nil {
		a.err = op.Err
		e.fail(fmt.Errorf("%s %q op %d: %w", op.Client, j.key, i, op.Err))
	}
}

// shed records j as an arrival a could not take.
func (e *engine) shed(a *actor, j job) {
	op := checker.Op{Key: j.key, Invoke: j.at, Return: time.Now(), Err: ErrOverload}
	op.Client, op.Kind = a.client()
	e.rec.Add(op)
}

// fail keeps the run's first operation error.
func (e *engine) fail(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil {
		e.err = err
	}
}
