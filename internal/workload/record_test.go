package workload

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"luckystore/internal/checker"
	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/types"
)

var (
	errScriptWrite = errors.New("scripted write failure")
	errScriptRead  = errors.New("scripted read failure")
)

// settle is how long a scripted read failure trails the write failure
// it waits for.
const settle = 200 * time.Millisecond

// scripted wraps a real deployment's driver. Every writer identity's
// 2nd write on a key reports a ghost stamp it abandoned (seq 1000+w)
// and its 3rd fails; every reader's 2nd read waits for the first write
// failure and then fails, so the write error is always the run's first.
type scripted struct {
	Driver

	mu          sync.Mutex
	writes      map[string]int // per "w/key": writes issued
	reads       map[int]int
	ghosts      []types.Tagged // ghost pairs reported
	failedVals  []types.Value  // values of the scripted write failures
	failedReads int
	writeFailed chan struct{}
}

func newScripted(d Driver) *scripted {
	return &scripted{Driver: d, writes: map[string]int{}, reads: map[int]int{},
		writeFailed: make(chan struct{})}
}

func (s *scripted) Write(w int, key string, v types.Value) (types.Tagged, OpMeta, error) {
	s.mu.Lock()
	k := fmt.Sprint(w, "/", key)
	s.writes[k]++
	n := s.writes[k]
	if n == 3 {
		if len(s.failedVals) == 0 {
			close(s.writeFailed)
		}
		s.failedVals = append(s.failedVals, v)
		s.mu.Unlock()
		return types.Tagged{}, OpMeta{}, errScriptWrite
	}
	s.mu.Unlock()
	got, meta, err := s.Driver.Write(w, key, v)
	if err == nil && n == 2 {
		meta.Ghost = types.Stamp{Seq: types.TS(1000 + w), Writer: types.WID(w)}
		s.mu.Lock()
		s.ghosts = append(s.ghosts, types.Tagged{TS: meta.Ghost.Seq, W: meta.Ghost.Writer, Val: v})
		s.mu.Unlock()
	}
	return got, meta, err
}

func (s *scripted) Read(r int, key string) (types.Tagged, OpMeta, error) {
	s.mu.Lock()
	s.reads[r]++
	n := s.reads[r]
	s.mu.Unlock()
	if n != 2 {
		return s.Driver.Read(r, key)
	}
	select {
	case <-s.writeFailed:
	case <-time.After(5 * time.Second):
	}
	// Write signals the write failure before it returns the error;
	// the engine collects that error on the writer's goroutine after.
	// Hold the read failure back past that moment so the write's error
	// is the run's first however the two goroutines are scheduled.
	time.Sleep(settle)
	s.mu.Lock()
	s.failedReads++
	s.mu.Unlock()
	return types.Tagged{}, OpMeta{}, errScriptRead
}

// TestRecordRule runs every traffic shape over a core cluster and a kv
// store and checks the one record rule: each write binds a value unique
// per key and tagged with its writer, every failed operation is in the
// history with its error (a failed write with the value it tried), an
// abandoned speculative stamp is an ErrSpecGhost write, and the run
// returns its first error.
func TestRecordRule(t *testing.T) {
	cfg := core.Config{T: 1, B: 0, NumReaders: 2, Writers: 2,
		RoundTimeout: 10 * time.Millisecond, OpTimeout: 5 * time.Second}
	deployments := map[string]func(t *testing.T) Driver{
		"cluster": func(t *testing.T) Driver {
			c, err := core.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			return Register(c.Deployment)
		},
		"kv": func(t *testing.T) Driver {
			st, err := kv.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(st.Close)
			return KVDriver{S: st}
		},
	}
	shapes := map[string]struct {
		writers int
		run     func(ctx context.Context, d Driver) (*checker.Recorder, error)
	}{
		"mixed": {1, func(_ context.Context, d Driver) (*checker.Recorder, error) {
			return Mixed{Writes: 5, ReadsPerReader: 5}.RunDriver(d)
		}},
		"continuous": {2, func(ctx context.Context, d Driver) (*checker.Recorder, error) {
			return Continuous{Keys: []string{"a", "b"}, Writers: 2, Seed: 1,
				WritePace: time.Millisecond, ReadPace: time.Millisecond}.Run(ctx, d)
		}},
		"openloop": {1, func(ctx context.Context, d Driver) (*checker.Recorder, error) {
			ctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
			defer cancel()
			return OpenLoop{Keys: []string{"a", "b"}, Rate: 500, Seed: 1}.Run(ctx, d)
		}},
	}
	for dname, open := range deployments {
		for sname, shape := range shapes {
			t.Run(dname+"/"+sname, func(t *testing.T) {
				d := newScripted(open(t))
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				rec, err := shape.run(ctx, d)
				if !errors.Is(err, errScriptWrite) {
					t.Fatalf("returned error %v, want the first (scripted write) failure", err)
				}
				checkRecordRule(t, rec.Ops(), d, shape.writers)
			})
		}
	}
}

func checkRecordRule(t *testing.T, ops []checker.Op, d *scripted, writers int) {
	t.Helper()
	seen := map[string]bool{}
	var ghosts []types.Tagged
	var failedVals []types.Value
	failedReads := 0
	for _, op := range ops {
		switch {
		case errors.Is(op.Err, ErrSpecGhost):
			ghosts = append(ghosts, op.Value)
			if op.Kind != checker.KindWrite || op.Value.W != types.WID(op.Client.WriterIndex()) {
				t.Errorf("ghost entry %+v is not a write by the ghost's writer", op)
			}
			continue
		case errors.Is(op.Err, ErrOverload):
			continue
		case errors.Is(op.Err, errScriptWrite):
			failedVals = append(failedVals, op.Value.Val)
		case errors.Is(op.Err, errScriptRead):
			failedReads++
		case op.Err != nil:
			t.Errorf("unexpected failure recorded: %+v", op)
		}
		if op.Kind != checker.KindWrite {
			continue
		}
		w := op.Client.WriterIndex()
		prefix := "v"
		if writers > 1 {
			prefix = fmt.Sprintf("w%d.v", w)
		}
		if w < 0 || !strings.HasPrefix(string(op.Value.Val), prefix) {
			t.Errorf("write by %s recorded value %q, want prefix %q", op.Client, op.Value.Val, prefix)
		}
		if k := op.Key + "/" + string(op.Value.Val); seen[k] {
			t.Errorf("value %q recorded twice on key %q", op.Value.Val, op.Key)
		} else {
			seen[k] = true
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !sameElements(ghosts, d.ghosts) {
		t.Errorf("ghost entries %v, want %v", ghosts, d.ghosts)
	}
	if !sameElements(failedVals, d.failedVals) || len(failedVals) == 0 {
		t.Errorf("failed writes recorded with values %q, want %q", failedVals, d.failedVals)
	}
	if failedReads != d.failedReads || failedReads == 0 {
		t.Errorf("recorded %d failed reads, driver failed %d", failedReads, d.failedReads)
	}
}

// sameElements reports whether a and b hold the same multiset.
func sameElements[T comparable](a, b []T) bool {
	count := map[T]int{}
	for _, x := range a {
		count[x]++
	}
	for _, x := range b {
		count[x]--
	}
	for _, n := range count {
		if n != 0 {
			return false
		}
	}
	return len(a) == len(b)
}
