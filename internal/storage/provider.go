package storage

import (
	"path/filepath"
	"sync"
)

// MemProvider hands out in-memory backends keyed by name. The same
// name always returns the same backend, reopened if it was closed, so
// an in-process "restart" that reopens its storage finds its records —
// memory standing in for a disk that survived the crash.
type MemProvider struct {
	mu       sync.Mutex
	factory  func() Automaton
	backends map[string]*Memory
}

// NewMemProvider creates a memory provider; factory configures
// compaction for each opened backend (nil disables it).
func NewMemProvider(factory func() Automaton) *MemProvider {
	return &MemProvider{factory: factory, backends: make(map[string]*Memory)}
}

// Open implements Provider.
func (p *MemProvider) Open(name string) (Backend, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.backends[name]; ok {
		b.mu.Lock()
		b.closed = false // Close left the records where they were
		b.mu.Unlock()
		return b, nil
	}
	b := NewMemory(p.factory)
	p.backends[name] = b
	return b, nil
}

// DirProvider opens file backends in per-name subdirectories of a
// root directory: the deployment's data directory, one WAL per server
// process.
type DirProvider struct {
	root    string
	factory func() Automaton
	opts    []FileOption
}

// NewDirProvider creates a file provider rooted at root.
func NewDirProvider(root string, factory func() Automaton, opts ...FileOption) *DirProvider {
	return &DirProvider{root: root, factory: factory, opts: opts}
}

// Open implements Provider. Each call reopens the directory and runs
// crash recovery (torn-tail truncation), like a restarted process.
func (p *DirProvider) Open(name string) (Backend, error) {
	return NewFile(filepath.Join(p.root, name), p.factory, p.opts...)
}

// FaultProvider wraps another provider so every backend it opens is a
// *Fault: chaos schedules arm disk faults on a running server's
// backend, and a restart that reopens its storage gets a healthy
// wrapper over what the medium kept.
type FaultProvider struct{ inner Provider }

// NewFaultProvider wraps a provider with fault injection.
func NewFaultProvider(inner Provider) *FaultProvider { return &FaultProvider{inner} }

// Open implements Provider.
func (p *FaultProvider) Open(name string) (Backend, error) {
	b, err := p.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return NewFault(b), nil
}
