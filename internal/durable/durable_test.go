package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// names lists dir's entries.
func names(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// TestReplace: a new file and a replaced one both end up holding exactly
// the written bytes, with no temp file beside them.
func TestReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	for _, data := range [][]byte{[]byte("first"), []byte("second, longer")} {
		if err := Replace(OS, path, data); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("after Replace: %q (%v), want %q", got, err, data)
		}
		if got := names(t, dir); !slices.Equal(got, []string{"manifest.json"}) {
			t.Fatalf("directory holds %v, want only manifest.json", got)
		}
	}
}

// TestReplaceRenameFailureKeepsPrevious: a Replace whose rename fails
// leaves the file it would have replaced byte-identical and no temp
// debris. A non-empty directory at the target path makes the rename fail
// after the temp file was written and synced.
func TestReplaceRenameFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gen-00000001.ckpt")
	if err := os.MkdirAll(filepath.Join(path, "inside"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Replace(OS, path, []byte("new generation")); err == nil {
		t.Fatal("Replace over a directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(path, "inside")); err != nil {
		t.Fatalf("the previous entry at the target changed: %v", err)
	}
	if got := names(t, dir); !slices.Equal(got, []string{"gen-00000001.ckpt"}) {
		t.Fatalf("directory holds %v after a failed rename, want no temp debris", got)
	}
}

// TestSweepTemp: SweepTemp removes Replace's temp files and nothing else.
func TestSweepTemp(t *testing.T) {
	dir := t.TempDir()
	keep := []string{"gen-00000001.ckpt", "gen-5.ckpt", "manifest.json", "notes.tmp", "x.tmpfile", ".tmp123", "logs"}
	debris := []string{"gen-00000002.ckpt.tmp123", "manifest.json.tmp4294967295"}
	for _, name := range append(slices.Clone(keep), debris...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A temp file made exactly as Replace makes one is swept too.
	f, err := OS.CreateTemp(dir, "gen-00000003.ckpt"+tempInfix+"*")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !isTemp(filepath.Base(f.Name())) {
		t.Fatalf("isTemp(%q) = false for a file made as Replace makes one", filepath.Base(f.Name()))
	}

	SweepTemp(OS, dir)
	got := names(t, dir)
	slices.Sort(keep)
	if !slices.Equal(got, keep) {
		t.Fatalf("after SweepTemp: %v, want %v", got, keep)
	}
	SweepTemp(OS, filepath.Join(dir, "missing")) // a missing directory is not an error
}

// TestMakeDir: MakeDir creates a nested directory and accepts one that
// already exists.
func TestMakeDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt", "t1")
	for range 2 {
		if err := MakeDir(OS, path); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
			t.Fatalf("after MakeDir: %v", err)
		}
	}
}
