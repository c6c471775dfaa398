package kv

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/keyed"
	"luckystore/internal/types"
)

// stepper is the resumable half of a core client operation: after
// Start, Step waits out one round and completes or emits the next
// (core.Writer and core.Reader both have it).
type stepper interface {
	Step() (done bool, err error)
}

// batchOp is one key of a batch: its handle (the per-key lock and the
// core client behind it) and where the key's operation stands.
type batchOp[C stepper] struct {
	key    string
	mu     *sync.Mutex
	client C
	over   bool // completed or failed; the handle lock is released
}

// runBatch drives one operation per entry of ops in lock-step from the
// caller's goroutine: every key emits a round under the demux's cork,
// the uncork ships the round as one frame per server, and then every
// unfinished key is stepped — waits its round out, completes or emits
// the next — under the next cork, until none is left. Keys that miss
// the fast path therefore run their extra rounds together too.
//
// Handles are taken in key order with duplicates folded, so concurrent
// batches over overlapping key sets (and lone operations, which hold
// one handle) cannot deadlock. A key's handle is released the moment its
// operation is over — a key that took the fast path is not held hostage
// by siblings running extra rounds — after completed has seen the
// client under the lock. It returns the failures, each naming its key
// after what ("put", "get").
func runBatch[C stepper](d *keyed.Demux, what string, ops []batchOp[C], start func(C, string) (bool, error), completed func(C, string)) (errs []error) {
	slices.SortFunc(ops, func(a, b batchOp[C]) int { return strings.Compare(a.key, b.key) })
	ops = slices.CompactFunc(ops, func(a, b batchOp[C]) bool { return a.key == b.key })
	settle := func(o *batchOp[C], done bool, err error) {
		if !done && err == nil {
			return
		}
		if err == nil {
			completed(o.client, o.key)
		} else {
			errs = append(errs, fmt.Errorf("%s %q: %w", what, o.key, err))
		}
		o.over = true
		o.mu.Unlock()
	}
	for i := range ops {
		ops[i].mu.Lock()
	}
	d.Cork()
	for i := range ops {
		done, err := start(ops[i].client, ops[i].key)
		settle(&ops[i], done, err)
	}
	for pending := true; pending; {
		d.Uncork()
		pending = false
		for i := range ops {
			if ops[i].over {
				continue
			}
			if !pending {
				pending = true
				d.Cork()
			}
			done, err := ops[i].client.Step()
			settle(&ops[i], done, err)
		}
	}
	return errs
}

// PutBatch writes every entry of puts, stepping the per-key WRITEs in
// lock-step so that each protocol round of the batch travels as one
// wire.Batch frame per server, and returns once all writes completed —
// nil only if every one succeeded (errors.Join of the failures
// otherwise). Each key individually keeps its atomic-register
// guarantees; a batch is a transport grouping, not a transaction, and
// offers no cross-key atomicity.
func (s *Store) PutBatch(puts map[string]types.Value) error { return s.putBatch(puts, nil) }

// putBatch is PutBatch, reporting each completed key's write meta to
// observe (nil for none) while the key's handle is still held — what a
// per-key history needs when other writers share the key: PutMeta after
// the call may already describe a later Put.
func (s *Store) putBatch(puts map[string]types.Value, observe func(key string, m core.WriteMeta)) error {
	var t0 time.Time
	if s.met != nil {
		t0 = time.Now()
	}
	ops := make([]batchOp[*core.Writer], 0, len(puts))
	var errs []error
	for key := range puts {
		h, err := s.writerFor(key)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		ops = append(ops, batchOp[*core.Writer]{key: key, mu: &h.mu, client: h.w})
	}
	errs = append(errs, runBatch(s.writerDemux, "put", ops,
		func(w *core.Writer, key string) (bool, error) { return w.Start(puts[key]) },
		func(w *core.Writer, key string) {
			s.met.observeAsyncPut(t0)
			if observe != nil {
				observe(key, w.LastMeta())
			}
		})...)
	return errors.Join(errs...)
}

// GetBatch reads every key through reader idx, the per-key READs
// stepped in lock-step like PutBatch's WRITEs, and returns the values
// by key (a key named twice is read once). Keys never written map to
// the initial pair 〈0,⊥〉. On failures it returns the successful subset
// together with an errors.Join of the failures.
func (s *Store) GetBatch(idx int, keys []string) (map[string]types.Tagged, error) {
	var t0 time.Time
	if s.met != nil {
		t0 = time.Now()
	}
	out := make(map[string]types.Tagged, len(keys))
	ops := make([]batchOp[*core.Reader], 0, len(keys))
	var errs []error
	for _, key := range keys {
		h, err := s.readerFor(idx, key)
		if err != nil {
			errs = append(errs, fmt.Errorf("get %q: %w", key, err))
			continue
		}
		ops = append(ops, batchOp[*core.Reader]{key: key, mu: &h.mu, client: h.r})
	}
	if len(ops) == 0 {
		return out, errors.Join(errs...)
	}
	errs = append(errs, runBatch(s.readerDemuxs[idx], "get", ops,
		func(r *core.Reader, _ string) (bool, error) { return r.Start() },
		func(r *core.Reader, key string) {
			out[key] = r.LastMeta().Returned
			s.met.observeAsyncGet(t0)
		})...)
	return out, errors.Join(errs...)
}
