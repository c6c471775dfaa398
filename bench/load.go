package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"luckystore"
	"luckystore/internal/checker"
	"luckystore/internal/types"
)

// gate is the correctness check that runs inside the timed loop at O(1)
// per operation. Values encode (key, seq); the writer publishes the
// stamp of its last completed Put per key, and the reader checks that
//
//   - a Get returns a value of its own key, bound to the stamp the
//     writer gave it (single-writer stamps count a key's Puts),
//   - per key, the stamps one reader sees never go backwards,
//   - a Get invoked after a Put returned sees a stamp at least that
//     Put's.
//
// Any miss is counted as a failed operation.
type gate struct {
	keys [numKeys]string
	pub  [numKeys]atomic.Int64 // stamp of the last Put that returned
	seq  [numKeys]int64        // writer-owned: Puts issued per key
	seen [numKeys]int64        // reader-owned: last stamp returned per key

	// Traced runs only (tr != nil): every checked op is also recorded —
	// as the root span the join starts from, and in the history handed
	// to the checker when the run ends.
	tr   *tracer
	hist []checker.Op
}

func newGate(tr *tracer) *gate {
	g := &gate{tr: tr}
	for k := range g.keys {
		g.keys[k] = keyName(k)
	}
	return g
}

// keyName and keyIndex fix the key format ("k" + four digits) so the
// trace decorators can turn a key back into an index without a map.
func keyName(k int) string { return fmt.Sprintf("k%04d", k) }

func keyIndex(key string) (int, bool) {
	if len(key) != 5 || key[0] != 'k' {
		return 0, false
	}
	return atoiFixed(key[1:])
}

func atoiFixed(s string) (int, bool) {
	n := 0
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int(d)
	}
	return n, true
}

// Value layout: 4 key digits, ':', 16 seq digits, ':', filler.
const (
	valSeqOff = 5
	valSeqEnd = valSeqOff + 16
)

func makeValue(k int, seq int64) luckystore.Value {
	var b [valueSize]byte
	for i := 3; i >= 0; i-- {
		b[i] = byte('0' + k%10)
		k /= 10
	}
	b[4] = ':'
	for i := valSeqEnd - 1; i >= valSeqOff; i-- {
		b[i] = byte('0' + seq%10)
		seq /= 10
	}
	b[valSeqEnd] = ':'
	for i := valSeqEnd + 1; i < valueSize; i++ {
		b[i] = byte('a' + i%26)
	}
	return luckystore.Value(b[:])
}

func parseValue(v luckystore.Value) (k int, seq int64, ok bool) {
	if len(v) != valueSize || v[4] != ':' || v[valSeqEnd] != ':' {
		return 0, 0, false
	}
	k, ok = atoiFixed(string(v[:4]))
	if !ok {
		return 0, 0, false
	}
	s, ok := atoiFixed(string(v[valSeqOff:valSeqEnd]))
	return k, int64(s), ok
}

// actorStats is what one client actor brings back from one phase.
type actorStats struct {
	lat       []int64 // ns, one per completed key-op (a batched key carries its call's latency)
	fast      int64   // completed ops whose meta says one round
	rounds    int64   // round trips summed over completed ops
	attempted int64
	failed    int64 // errored, refused or incorrect
	firstFail string
	elapsed   time.Duration

	ops  []opRec      // traced runs only, see gate.tr
	hist []checker.Op // moved into gate.hist when the phase ends
}

func (st *actorStats) fail(format string, args ...any) {
	st.failed++
	if st.firstFail == "" {
		st.firstFail = fmt.Sprintf(format, args...)
	}
}

// put issues one checked Put of key k.
func (g *gate) put(store *luckystore.KVStore, k int, st *actorStats) {
	g.seq[k]++
	val := makeValue(k, g.seq[k])
	t0 := time.Now()
	err := store.Put(g.keys[k], val)
	t1 := time.Now()
	g.afterPut(store, k, val, t0, t1, err, st)
}

func (g *gate) afterPut(store *luckystore.KVStore, k int, val luckystore.Value, t0, t1 time.Time, err error, st *actorStats) {
	st.attempted++
	if err != nil {
		st.fail("put %s: %v", g.keys[k], err)
		return
	}
	meta, _ := store.PutMeta(g.keys[k]) // a pure lookup; never errors for the store's own writer
	if int64(meta.TS) != g.seq[k] {
		st.fail("put %s: bound stamp %d, want %d", g.keys[k], meta.TS, g.seq[k])
		return
	}
	g.pub[k].Store(int64(meta.TS))
	st.lat = append(st.lat, int64(t1.Sub(t0)))
	st.rounds += int64(meta.Rounds)
	if meta.Fast {
		st.fast++
	}
	if g.tr != nil {
		st.ops = append(st.ops, opRec{
			t0: g.tr.at(t0), t1: g.tr.at(t1), stamp: int64(meta.TS),
			key: uint16(k), client: clientWriter, slow: !meta.Fast,
		})
		st.hist = append(st.hist, checker.Op{
			Client: types.WriterID(), Kind: checker.KindWrite, Key: g.keys[k],
			Value: meta.Value(val), Invoke: t0, Return: t1, Rounds: meta.Rounds, Fast: meta.Fast,
		})
	}
}

// get issues one checked Get of key k.
func (g *gate) get(store *luckystore.KVStore, k int, st *actorStats) {
	floor := g.pub[k].Load()
	t0 := time.Now()
	got, err := store.Get(0, g.keys[k])
	t1 := time.Now()
	g.afterGet(store, k, floor, got, t0, t1, err, st)
}

func (g *gate) afterGet(store *luckystore.KVStore, k int, floor int64, got luckystore.Tagged, t0, t1 time.Time, err error, st *actorStats) {
	st.attempted++
	if err != nil {
		st.fail("get %s: %v", g.keys[k], err)
		return
	}
	ts := int64(got.TS)
	vk, vseq, ok := parseValue(got.Val)
	switch {
	case !ok || vk != k:
		st.fail("get %s: returned a value that is not this key's: %q", g.keys[k], got.Val)
		return
	case vseq != ts:
		st.fail("get %s: value of put %d returned under stamp %d", g.keys[k], vseq, ts)
		return
	case ts < floor:
		st.fail("get %s: stamp %d older than put %d that returned before the get started", g.keys[k], ts, floor)
		return
	case ts < g.seen[k]:
		st.fail("get %s: stamp went backwards, %d after %d", g.keys[k], ts, g.seen[k])
		return
	}
	g.seen[k] = ts
	meta, _ := store.GetMeta(0, g.keys[k]) // reader 0 exists; a pure lookup
	st.lat = append(st.lat, int64(t1.Sub(t0)))
	st.rounds += int64(meta.Rounds())
	if meta.Fast() {
		st.fast++
	}
	if g.tr != nil {
		st.ops = append(st.ops, opRec{
			t0: g.tr.at(t0), t1: g.tr.at(t1), stamp: int64(meta.TSR),
			key: uint16(k), client: clientReader, query: uint8(min(meta.QueryRounds, 255)), slow: meta.WroteBack,
		})
		st.hist = append(st.hist, checker.Op{
			Client: types.ReaderID(0), Kind: checker.KindRead, Key: g.keys[k],
			Value: got, Invoke: t0, Return: t1, Rounds: meta.Rounds(), Fast: meta.Fast(),
		})
	}
}

// picker is one actor's seeded key choice. It lives across phases, so
// warm-up and window draw from one sequence.
type picker struct {
	rng  *rand.Rand
	mark []int32 // distinct's scratch: the generation that last drew each key
	gen  int32
}

func newPicker(seed int64) *picker {
	return &picker{rng: rand.New(rand.NewSource(seed)), mark: make([]int32, numKeys)}
}

func (p *picker) one() int { return p.rng.Intn(numKeys) }

// distinct fills ks with distinct uniformly chosen keys.
func (p *picker) distinct(ks []int) {
	p.gen++
	for i := range ks {
		for {
			k := p.one()
			if p.mark[k] != p.gen {
				p.mark[k] = p.gen
				ks[i] = k
				break
			}
		}
	}
}

// putBatch issues one PutBatch over ks; every key is one op carrying the
// call's latency.
func (g *gate) putBatch(store *luckystore.KVStore, ks []int, puts map[string]luckystore.Value, st *actorStats) {
	clear(puts)
	for _, k := range ks {
		g.seq[k]++
		puts[g.keys[k]] = makeValue(k, g.seq[k])
	}
	t0 := time.Now()
	err := store.PutBatch(puts)
	t1 := time.Now()
	if err != nil {
		// The batch error does not say which keys failed; count all.
		for _, k := range ks {
			g.afterPut(store, k, "", t0, t1, err, st)
		}
		return
	}
	for _, k := range ks {
		g.afterPut(store, k, puts[g.keys[k]], t0, t1, nil, st)
	}
}

func (g *gate) getBatch(store *luckystore.KVStore, ks []int, names []string, floors []int64, st *actorStats) {
	for i, k := range ks {
		names[i] = g.keys[k]
		floors[i] = g.pub[k].Load()
	}
	t0 := time.Now()
	got, err := store.GetBatch(0, names)
	t1 := time.Now()
	for i, k := range ks {
		// GetBatch returns the successful subset beside the joined errors.
		v, ok := got[names[i]]
		var kerr error
		if !ok {
			kerr = fmt.Errorf("not in the batch result: %v", err)
		}
		g.afterGet(store, k, floors[i], v, t0, t1, kerr, st)
	}
}

// preload writes every key once and reads every key once, so the timed
// loop never pays a key's first-use handle creation and every Get has a
// value to check.
func (g *gate) preload(store *luckystore.KVStore) error {
	var w, r actorStats
	for k := 0; k < numKeys; k++ {
		g.put(store, k, &w)
	}
	for k := 0; k < numKeys; k++ {
		g.get(store, k, &r)
	}
	g.hist = append(append(g.hist, w.hist...), r.hist...)
	return firstFailure("preload", &w, &r)
}

// firstFailure turns the failures of a sequential pass into an error.
func firstFailure(what string, sts ...*actorStats) error {
	for _, st := range sts {
		if st.failed > 0 {
			return fmt.Errorf("%s: %d failed ops, first: %s", what, st.failed, st.firstFail)
		}
	}
	return nil
}

// actors are the two closed-loop clients of a run.
type actors struct {
	g     *gate
	store *luckystore.KVStore
	batch int
	pickW *picker
	pickR *picker
}

func newActors(g *gate, store *luckystore.KVStore, batch int, seed int64) *actors {
	return &actors{g: g, store: store, batch: batch, pickW: newPicker(seed), pickR: newPicker(seed ^ 0x5DEECE66D)}
}

// run drives both actors for d and returns what each did. latCap
// presizes the latency slices so the loop itself allocates little.
func (a *actors) run(d time.Duration, latCap int) (w, r actorStats) {
	w.lat, r.lat = make([]int64, 0, latCap), make([]int64, 0, latCap)
	var wg sync.WaitGroup
	wg.Add(2)
	start := time.Now()
	deadline := start.Add(d)
	go func() {
		defer wg.Done()
		a.writer(deadline, &w)
		w.elapsed = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		a.reader(deadline, &r)
		r.elapsed = time.Since(start)
	}()
	wg.Wait()
	a.g.hist = append(append(a.g.hist, w.hist...), r.hist...)
	w.hist, r.hist = nil, nil
	return w, r
}

func (a *actors) writer(deadline time.Time, st *actorStats) {
	if a.batch <= 1 {
		for time.Now().Before(deadline) {
			a.g.put(a.store, a.pickW.one(), st)
		}
		return
	}
	ks := make([]int, a.batch)
	puts := make(map[string]luckystore.Value, a.batch)
	for time.Now().Before(deadline) {
		a.pickW.distinct(ks)
		a.g.putBatch(a.store, ks, puts, st)
	}
}

func (a *actors) reader(deadline time.Time, st *actorStats) {
	if a.batch <= 1 {
		for time.Now().Before(deadline) {
			a.g.get(a.store, a.pickR.one(), st)
		}
		return
	}
	ks := make([]int, a.batch)
	names := make([]string, a.batch)
	floors := make([]int64, a.batch)
	for time.Now().Before(deadline) {
		a.pickR.distinct(ks)
		a.g.getBatch(a.store, ks, names, floors, st)
	}
}
