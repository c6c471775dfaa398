package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"luckystore/internal/core"
	"luckystore/internal/kv"
	"luckystore/internal/storage"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it printed plus its exit code.
func captureStdout(t *testing.T, fn func() int) (string, int) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := fn()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), code
}

// A durable multi-writer store writes two keys under two writer
// identities; after close, `stamps` on the servers' data directories
// must attribute each key's installed stamp to the identity that wrote
// it. Each put commits on a quorum before acking, so at least one
// server's directory holds both keys' records — the assertion requires
// one directory showing both, with beta's stamp carrying writer 1's
// ⟨seq.1⟩ suffix.
func TestStampsSubcommandAttributesWriters(t *testing.T) {
	root := t.TempDir()
	cfg := core.Config{T: 1, B: 0, Fw: 1, NumReaders: 1, Writers: 2}
	prov := storage.NewDirProvider(root, kv.NewStorageAutomaton)
	st, err := kv.Open(cfg, kv.WithStorage(prov))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("alpha", "a0"); err != nil {
		t.Fatal(err)
	}
	if err := st.PutAs(1, "beta", "b1"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	sawBoth := false
	for i := 0; i < cfg.S(); i++ {
		dir := filepath.Join(root, "s"+string(rune('0'+i)))
		if _, err := os.Stat(dir); err != nil {
			continue
		}
		out, code := captureStdout(t, func() int { return run([]string{"stamps", dir}) })
		if code != 0 {
			t.Errorf("stamps %s = %d, want 0\n%s", dir, code, out)
			continue
		}
		hasAlpha := strings.Contains(out, "alpha: pw=⟨1⟩")
		hasBeta := strings.Contains(out, "beta: pw=⟨1.1⟩")
		if hasBeta && !strings.Contains(out, `value="b1"`) && !strings.Contains(out, "1.1") {
			t.Errorf("stamps %s: beta line lost its writer suffix:\n%s", dir, out)
		}
		if hasAlpha && hasBeta {
			sawBoth = true
		}
	}
	if !sawBoth {
		t.Error("no server directory showed both keys' installed stamps with writer attribution")
	}
}

func TestStampsSubcommandUsageErrors(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := [][]string{
		{"stamps"},                        // missing dir
		{"stamps", "a", "b"},              // too many args
		{"stamps", "/does/not/exist-stp"}, // absent path
		{"stamps", file},                  // not a directory
		{"stamps", t.TempDir()},           // no segments
	}
	for _, args := range tests {
		if _, code := captureStdout(t, func() int { return run(args) }); code == 0 {
			t.Errorf("run(%v) = 0, want non-zero", args)
		}
	}
}
