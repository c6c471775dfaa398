package kv

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"luckystore/internal/core"
	"luckystore/internal/drive"
	"luckystore/internal/keyed"
	"luckystore/internal/transport"
	"luckystore/internal/types"
)

// op is one key's operation in a batch: the key's handle, what to start,
// and — once it is over — its outcome, taken while the handle was still
// held. It is the drive.Task of the handle's client.
type op struct {
	*handle
	key     string
	val     types.Value  // a Put's value
	pair    types.Tagged // a ForwardPut's pair
	forward bool

	err  error
	meta core.WriteMeta // a completed Put's
	got  types.Tagged   // a completed Get's
}

func (o *op) Start(now time.Time, out *[]transport.Outgoing) (bool, error) {
	switch c := o.Op.(type) {
	case *core.Writer:
		if o.forward {
			return c.StartAt(now, o.pair, out)
		}
		return c.Start(now, o.val, out)
	default:
		return c.(*core.Reader).Start(now, out)
	}
}

// End records the outcome and releases the handle.
func (o *op) End(err error) {
	o.err = err
	if err == nil {
		switch c := o.Op.(type) {
		case *core.Writer:
			o.meta = c.LastMeta()
		case *core.Reader:
			o.got = c.LastMeta().Returned
		}
	}
	o.mu.Unlock()
}

// batch is the operations of one call — a lone Put or Get, a future, a
// batch — and the driver that runs them from one goroutine, with one
// inbox and one timer for all of them. Batches are pooled per role, so
// the driver and the op slice are reused call after call.
type batch struct {
	dr    *drive.Driver
	ops   []op
	order []*op // ops in handle order, a handle's duplicates folded: what run ran
}

// role is one client identity of a store: its coalesced endpoint's
// demux, whose subscriptions carry the role's per-key handles, and its
// pool of batches. The pool never drops a batch: each driver's inbox is
// registered with the demux, which closes it on Close.
type role struct {
	d    *keyed.Demux
	mu   sync.Mutex
	free []*batch
}

func (p *role) get() (*batch, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return b, nil
	}
	p.mu.Unlock()
	in, err := p.d.NewInbox()
	if err != nil {
		return nil, err
	}
	return &batch{dr: drive.New(in, p.d, nil)}, nil
}

func (p *role) put(b *batch) {
	clear(b.ops)
	b.ops = b.ops[:0]
	clear(b.order)
	b.order = b.order[:0]
	p.mu.Lock()
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// one runs o as a batch of one and returns it, outcome filled in, with
// its error.
func (p *role) one(o op) (op, error) {
	b, err := p.get()
	if err != nil {
		return o, err
	}
	b.ops = append(b.ops, o)
	b.run()
	o = b.ops[0]
	p.put(b)
	return o, o.err
}

// run drives every op to completion in lock-step (drive.Driver.Run), in
// b.order. Handles are taken in the order of their seq, duplicates — ops
// on one handle, a key named twice — folded, so concurrent batches over
// overlapping key sets (and lone operations, which hold one handle)
// cannot deadlock; each is released the moment its operation is over,
// its outcome on the op.
func (b *batch) run() {
	for i := range b.ops {
		b.order = append(b.order, &b.ops[i])
	}
	if len(b.order) > 1 {
		slices.SortFunc(b.order, func(x, y *op) int { return cmp.Compare(x.seq, y.seq) })
		b.order = slices.CompactFunc(b.order, func(x, y *op) bool { return x.handle == y.handle })
	}
	for _, o := range b.order {
		o.mu.Lock()
	}
	for _, o := range b.order {
		b.dr.Add(o, o.sub)
	}
	b.dr.Run()
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
// observe (nil for none) — the meta taken while the key's handle was
// still held, which is what a per-key history needs when other writers
// share the key: PutMeta after the call may already describe a later Put.
func (s *Store) putBatch(puts map[string]types.Value, observe func(key string, m core.WriteMeta)) error {
	t0 := s.met.start()
	r := s.writers[0]
	b, err := r.get()
	if err != nil {
		return err
	}
	var errs []error
	for key, v := range puts {
		_, h, err := s.writerFor(0, key)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		b.ops = append(b.ops, op{handle: h, key: key, val: v})
	}
	b.run()
	for _, o := range b.order {
		if o.err != nil {
			errs = append(errs, fmt.Errorf("put %q: %w", o.key, o.err))
			continue
		}
		s.met.observeAsyncPut(t0)
		if observe != nil {
			observe(o.key, o.meta)
		}
	}
	r.put(b)
	return errors.Join(errs...)
}

// GetBatch reads every key through reader idx, the per-key READs
// stepped in lock-step like PutBatch's WRITEs, and returns the values
// by key (a key named twice is read once). Keys never written map to
// the initial pair 〈0,⊥〉. On failures it returns the successful subset
// together with an errors.Join of the failures.
func (s *Store) GetBatch(idx int, keys []string) (map[string]types.Tagged, error) {
	t0 := s.met.start()
	out := make(map[string]types.Tagged, len(keys))
	r, err := roleAt(s.readers, "reader", idx)
	if err != nil {
		return out, err
	}
	b, err := r.get()
	if err != nil {
		return out, err
	}
	var errs []error
	for _, key := range keys {
		_, h, err := s.readerFor(idx, key)
		if err != nil {
			errs = append(errs, fmt.Errorf("get %q: %w", key, err))
			continue
		}
		b.ops = append(b.ops, op{handle: h, key: key})
	}
	b.run()
	for _, o := range b.order {
		if o.err != nil {
			errs = append(errs, fmt.Errorf("get %q: %w", o.key, o.err))
			continue
		}
		out[o.key] = o.got
		s.met.observeAsyncGet(t0)
	}
	r.put(b)
	return out, errors.Join(errs...)
}
