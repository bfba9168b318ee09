package durable

import (
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"
)

// TestReplaceWriteFailureKeepsPrevious: a Replace whose write fails leaves
// the previous file byte-identical and no temp debris. A file-size limit
// below the new content makes the write fail part-way (EFBIG; the Go
// runtime ignores SIGXFSZ).
func TestReplaceWriteFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	prev := []byte("previous manifest")
	if err := Replace(OS, path, prev); err != nil {
		t.Fatal(err)
	}

	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	small := lim
	small.Cur = 8
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &small); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	err := Replace(OS, path, make([]byte, 4096))
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); rerr != nil {
		t.Fatalf("restore the file-size limit: %v", rerr)
	}
	if err == nil {
		t.Fatal("Replace past the file-size limit succeeded")
	}

	if got, _ := os.ReadFile(path); !slices.Equal(got, prev) {
		t.Fatalf("previous content changed: %q", got)
	}
	if got := names(t, dir); !slices.Equal(got, []string{"manifest.json"}) {
		t.Fatalf("directory holds %v after a failed write, want no temp debris", got)
	}
}
