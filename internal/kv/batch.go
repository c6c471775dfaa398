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
	"luckystore/internal/transport"
	"luckystore/internal/types"
	"luckystore/internal/wire"
)

// client is the non-blocking half of a core client operation (core.Writer
// and core.Reader both have it): replies go in by Deliver, the timer's
// verdicts by Expire, and once the round is Decided, Advance completes
// the operation or emits its next round.
type client interface {
	Deliver(env wire.Envelope)
	Decided() bool
	Deadline() time.Time
	Expire(now time.Time)
	Advance() (done bool, err error)
}

// op is one key's operation in a driver's run: the key's handle (its
// lock, routed subscription and core client), what to start, and — once
// it is over — its outcome, taken while the handle was still held.
type op struct {
	key     string
	mu      *sync.Mutex
	sub     *keyed.Sub
	c       client
	val     types.Value  // a Put's value
	pair    types.Tagged // a ForwardPut's pair
	forward bool

	over    bool // completed or failed; the route is cleared and the handle released
	decided bool // the round in flight is decided
	err     error
	meta    core.WriteMeta // a completed Put's
	got     types.Tagged   // a completed Get's
}

func (o *op) start() (bool, error) {
	switch c := o.c.(type) {
	case *core.Writer:
		if o.forward {
			return c.StartAt(o.pair)
		}
		return c.Start(o.val)
	default:
		return c.(*core.Reader).Start()
	}
}

// driver runs the operations of one call — a lone Put or Get, a future,
// a batch — from one goroutine, with one inbox and one timer for all of
// them. Drivers are pooled per demux (drivers), so the inbox, the timer
// and the op slice are reused call after call.
type driver struct {
	d         *keyed.Demux
	in        *keyed.Inbox
	timer     *time.Timer
	ops       []op
	live      int // ops not over
	undecided int // live ops whose round is not decided
}

// drivers is one demux's pool of drivers. It never drops one: each
// inbox is registered with the demux, which closes it on Close.
type drivers struct {
	d    *keyed.Demux
	mu   sync.Mutex
	free []*driver
}

func (p *drivers) get() (*driver, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		dr := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return dr, nil
	}
	p.mu.Unlock()
	in, err := p.d.NewInbox()
	if err != nil {
		return nil, err
	}
	return &driver{d: p.d, in: in}, nil
}

func (p *drivers) put(dr *driver) {
	clear(dr.ops)
	dr.ops = dr.ops[:0]
	p.mu.Lock()
	p.free = append(p.free, dr)
	p.mu.Unlock()
}

// one runs o as a batch of one and returns it, outcome filled in, with
// its error.
func (p *drivers) one(o op) (op, error) {
	dr, err := p.get()
	if err != nil {
		return o, err
	}
	dr.ops = append(dr.ops, o)
	dr.run()
	o = dr.ops[0]
	p.put(dr)
	return o, o.err
}

// run drives every op to completion in lock-step: every key emits a
// round under the demux's cork, the uncork ships the round as one frame
// per server, and the driver then delivers replies and expires deadlines
// until every key's round is decided, and advances them all — complete,
// or emit the next round — under the next cork. Keys that miss the fast
// path therefore run their extra rounds together too, and a batch of N
// waits on one inbox and one timer, not N. A lone op does not cork: its
// sends write through as a Send on an idle coalescer does, where a
// corked round with one destination down would all go out on the
// coalescer's transient goroutine.
//
// Handles are taken in key order with duplicates folded, so concurrent
// batches over overlapping key sets (and lone operations, which hold one
// handle) cannot deadlock. A key is routed to its slot of the inbox
// before its operation starts; the route is cleared and the handle
// released the moment the operation is over, its outcome on the op.
func (dr *driver) run() {
	if len(dr.ops) > 1 {
		slices.SortFunc(dr.ops, func(a, b op) int { return strings.Compare(a.key, b.key) })
		dr.ops = slices.CompactFunc(dr.ops, func(a, b op) bool { return a.key == b.key })
	}
	for i := range dr.ops {
		dr.ops[i].mu.Lock()
	}
	dr.live, dr.undecided = len(dr.ops), 0
	dr.cork()
	for i := range dr.ops {
		o := &dr.ops[i]
		o.sub.Route(dr.in, i)
		done, err := o.start()
		dr.settle(o, done, err)
	}
	for {
		dr.uncork()
		if dr.live == 0 {
			break
		}
		if err := dr.await(); err != nil {
			for i := range dr.ops {
				if o := &dr.ops[i]; !o.over {
					dr.settle(o, false, err)
				}
			}
			break
		}
		dr.cork()
		for i := range dr.ops {
			if o := &dr.ops[i]; !o.over {
				done, err := o.c.Advance()
				dr.settle(o, done, err)
			}
		}
	}
	_ = dr.drain() // replies that came after their op was decided
}

func (dr *driver) cork() {
	if len(dr.ops) > 1 {
		dr.d.Cork()
	}
}

func (dr *driver) uncork() {
	if len(dr.ops) > 1 {
		dr.d.Uncork()
	}
}

// settle takes o's Start/Advance verdict: an op that is over is
// unrouted and released with its outcome recorded; one that goes on has
// a new round, counted undecided unless it already is decided.
func (dr *driver) settle(o *op, done bool, err error) {
	if !done && err == nil {
		if o.decided = o.c.Decided(); !o.decided {
			dr.undecided++
		}
		return
	}
	o.sub.Route(nil, 0)
	o.over, o.err = true, err
	if err == nil {
		switch c := o.c.(type) {
		case *core.Writer:
			o.meta = c.LastMeta()
		case *core.Reader:
			o.got = c.LastMeta().Returned
		}
	}
	dr.live--
	o.mu.Unlock()
}

// await delivers replies and expires deadlines until every live op's
// round is decided, then delivers what is already queued, so that every
// verdict — the timer's, and the fast-path check Advance makes — sees
// every reply that arrived in time. It fails only when the demux closed.
func (dr *driver) await() error {
	for dr.undecided > 0 {
		dr.arm()
		for fired := false; !fired && dr.undecided > 0; {
			select {
			case dl, ok := <-dr.in.C():
				if !ok {
					return transport.ErrClosed
				}
				dr.deliver(dl)
			case <-dr.timer.C:
				fired = true
				if err := dr.drain(); err != nil {
					return err
				}
				now := time.Now()
				for i := range dr.ops {
					if o := &dr.ops[i]; !o.over && !o.decided && !now.Before(o.c.Deadline()) {
						o.c.Expire(now)
						dr.check(o)
					}
				}
			}
		}
	}
	return dr.drain()
}

// arm points the timer at the earliest deadline of an undecided op.
func (dr *driver) arm() {
	var next time.Time
	for i := range dr.ops {
		if o := &dr.ops[i]; !o.over && !o.decided {
			if dl := o.c.Deadline(); next.IsZero() || dl.Before(next) {
				next = dl
			}
		}
	}
	if dr.timer == nil {
		dr.timer = time.NewTimer(time.Until(next))
	} else {
		dr.timer.Reset(time.Until(next))
	}
}

// deliver hands a reply to the op its slot holds, unless the slot has
// moved on to another key or the op is over: a reply routed before the
// route was cleared, or to the previous user of this inbox.
func (dr *driver) deliver(dl keyed.Delivery) {
	if dl.Slot >= len(dr.ops) {
		return
	}
	if o := &dr.ops[dl.Slot]; o.sub == dl.Sub && !o.over {
		o.c.Deliver(dl.Env)
		dr.check(o)
	}
}

// check counts o decided once its round is.
func (dr *driver) check(o *op) {
	if !o.decided && o.c.Decided() {
		o.decided = true
		dr.undecided--
	}
}

// drain delivers the replies already queued.
func (dr *driver) drain() error {
	for {
		select {
		case dl, ok := <-dr.in.C():
			if !ok {
				return transport.ErrClosed
			}
			dr.deliver(dl)
		default:
			return nil
		}
	}
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
	var t0 time.Time
	if s.met != nil {
		t0 = time.Now()
	}
	dr, err := s.writerDrivers.get()
	if err != nil {
		return err
	}
	var errs []error
	for key, v := range puts {
		h, err := s.writerFor(key)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		dr.ops = append(dr.ops, op{key: key, mu: &h.mu, sub: h.sub, c: h.w, val: v})
	}
	dr.run()
	for i := range dr.ops {
		o := &dr.ops[i]
		if o.err != nil {
			errs = append(errs, fmt.Errorf("put %q: %w", o.key, o.err))
			continue
		}
		s.met.observeAsyncPut(t0)
		if observe != nil {
			observe(o.key, o.meta)
		}
	}
	s.writerDrivers.put(dr)
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
	if idx < 0 || idx >= len(s.readerDrivers) {
		return out, fmt.Errorf("kv: reader index %d out of range [0,%d)", idx, len(s.readerDrivers))
	}
	dr, err := s.readerDrivers[idx].get()
	if err != nil {
		return out, err
	}
	var errs []error
	for _, key := range keys {
		h, err := s.readerFor(idx, key)
		if err != nil {
			errs = append(errs, fmt.Errorf("get %q: %w", key, err))
			continue
		}
		dr.ops = append(dr.ops, op{key: key, mu: &h.mu, sub: h.sub, c: h.r})
	}
	dr.run()
	for i := range dr.ops {
		o := &dr.ops[i]
		if o.err != nil {
			errs = append(errs, fmt.Errorf("get %q: %w", o.key, o.err))
			continue
		}
		out[o.key] = o.got
		s.met.observeAsyncGet(t0)
	}
	s.readerDrivers[idx].put(dr)
	return out, errors.Join(errs...)
}
