// Package workload drives deployments with reproducible operation
// mixes and records the histories for the checker: Mixed (a count),
// Continuous (paced until cancelled) and OpenLoop (a fixed offered
// rate) run on one engine with one record rule. Its users are the
// experiments, the chaos engine, cmd/luckyload and integration tests.
package workload

import (
	"fmt"

	"luckystore/internal/checker"
	"luckystore/internal/types"
)

// Value returns the deterministic payload of the i-th write, padded to
// size bytes (size 0 keeps the short form). Values are unique per index
// so the checker can associate reads with writes unambiguously.
func Value(i, size int) types.Value {
	v := fmt.Sprintf("v%d", i)
	if size > len(v) {
		v += string(make([]byte, size-len(v)))
	}
	return types.Value(v)
}

// WriterValue is Value for contending-writer workloads: the payload
// additionally carries the writer index, so values stay unique across
// writers and the checker's read-to-write association is unambiguous.
func WriterValue(w, i, size int) types.Value {
	v := fmt.Sprintf("w%d.v%d", w, i)
	if size > len(v) {
		v += string(make([]byte, size-len(v)))
	}
	return types.Value(v)
}

// Mixed drives a fixed count of operations on one register: one
// writer runs Writes writes back to back while every reader client
// runs ReadsPerReader reads concurrently, all recorded. An operation
// error stops the actor that hit it.
type Mixed struct {
	Writes         int
	ReadsPerReader int
	ValueSize      int
}

// RunDriver executes the workload against any deployment through its
// Driver and returns the recorded history with the first operation
// error, once every actor has stopped. All traffic targets one
// register (DefaultKey on multi-key drivers).
func (m Mixed) RunDriver(d Driver) (*checker.Recorder, error) {
	e, _ := newEngine(d, nil, 1, m.ValueSize) // one writer always resolves
	return e.run(func(a *actor, i int) (job, bool) {
		n := m.ReadsPerReader
		if a.w >= 0 {
			n = m.Writes
		}
		return job{key: e.keys[0]}, a.err == nil && i <= n
	})
}

// RoundStats extracts per-kind round distributions from a history.
func RoundStats(ops []checker.Op) (writes, reads map[int]int) {
	writes, reads = make(map[int]int), make(map[int]int)
	for _, op := range ops {
		if op.Err != nil {
			continue
		}
		switch op.Kind {
		case checker.KindWrite:
			writes[op.Rounds]++
		case checker.KindRead:
			reads[op.Rounds]++
		}
	}
	return writes, reads
}
