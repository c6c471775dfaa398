package workload

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/types"
)

// keyLog is an instant multi-key driver that logs every read's key per
// reader and cancels its run once the log holds `until` operations.
type keyLog struct {
	readers int
	until   int
	cancel  context.CancelFunc

	mu    sync.Mutex
	ops   int
	reads map[int][]string
}

func (d *keyLog) NumReaders() int { return d.readers }
func (d *keyLog) NumWriters() int { return 1 }
func (d *keyLog) MultiKey() bool  { return true }

func (d *keyLog) count() {
	d.ops++
	if d.ops >= d.until {
		d.cancel()
	}
}

func (d *keyLog) Write(_ int, _ string, v types.Value) (types.Tagged, OpMeta, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.count()
	return types.Tagged{TS: types.TS(d.ops), Val: v}, OpMeta{Rounds: 1, Fast: true}, nil
}

func (d *keyLog) Read(r int, key string) (types.Tagged, OpMeta, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reads[r] = append(d.reads[r], key)
	done := true
	for i := 0; i < d.readers; i++ {
		done = done && len(d.reads[i]) >= 16
	}
	if done {
		d.cancel()
	}
	d.count()
	return types.Tagged{}, OpMeta{Rounds: 1, Fast: true}, nil
}

// TestContinuousKeyChoicesGolden pins each reader's key stream: reader
// r draws from rand.New(Seed*1000003 + r), one key then (with HotFrac
// set) one hot-key coin per read.
func TestContinuousKeyChoicesGolden(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d := &keyLog{readers: 2, until: 1 << 30, cancel: cancel, reads: map[int][]string{}}
	_, err := Continuous{
		Keys: []string{"a", "b", "c", "d"}, Seed: 11, HotFrac: 0.3,
		WritePace: time.Millisecond, ReadPace: time.Microsecond,
	}.Run(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{
		0: "[d b a a a c a d a b a c c a d a]",
		1: "[b c a b a c a d c b d a c c b a]",
	}
	for r := 0; r < 2; r++ {
		if len(d.reads[r]) < 16 {
			t.Fatalf("reader %d made %d reads, want at least 16", r, len(d.reads[r]))
		}
		if got := fmt.Sprint(d.reads[r][:16]); got != want[r] {
			t.Errorf("reader %d keys = %s, want %s", r, got, want[r])
		}
	}
}

// TestOpenLoopArrivalsGolden pins the arrival stream: one
// rand.New(Seed) draws each arrival's key, then its kind against
// WriteFrac, then (for a read, with HotFrac set) the hot-key coin.
func TestOpenLoopArrivalsGolden(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d := &keyLog{readers: 2, until: 40, cancel: cancel, reads: map[int][]string{}}
	rec, err := OpenLoop{
		Keys: []string{"a", "b", "c"}, Rate: 2000, WriteFrac: 0.4,
		Seed: 5, HotFrac: 0.5, QueueDepth: 1024,
	}.Run(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	ops := rec.Ops()
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Invoke.Before(ops[j].Invoke) })
	if len(ops) < 40 {
		t.Fatalf("recorded %d arrivals, want at least 40", len(ops))
	}
	var got []string
	for _, op := range ops[:40] {
		if op.Err != nil {
			t.Fatalf("arrival shed: %+v", op)
		}
		kind := "r"
		if op.Kind == checker.KindWrite {
			kind = "w"
		}
		got = append(got, kind+":"+op.Key)
	}
	want := []string{
		"r:a", "r:b", "r:a", "w:c", "r:a", "w:c", "r:a", "w:b", "r:b", "r:a",
		"r:c", "r:a", "r:a", "r:c", "w:a", "w:b", "r:a", "w:a", "w:c", "r:c",
		"r:c", "r:a", "w:a", "w:c", "w:c", "r:a", "r:a", "w:b", "r:a", "w:b",
		"w:a", "w:a", "r:a", "w:b", "r:b", "r:c", "r:a", "r:a", "r:a", "r:b",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("arrivals = %q\nwant %q", got, want)
	}
}
