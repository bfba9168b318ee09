// Package durable is the one place a file is written durably. Replace is
// the atomic-replace protocol every piece of persistent state goes
// through (the advisor's checkpoint files and advisord's tenant manifest),
// and SweepTemp removes the temp files a crash can leave behind it.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// tempInfix separates a target's base name from the random digits
// os.CreateTemp appends: Replace writes path's new content to
// "<base>.tmp<digits>" beside it.
const tempInfix = ".tmp"

// TempPattern is the os.CreateTemp pattern of path's temp file.
func TempPattern(path string) string { return filepath.Base(path) + tempInfix + "*" }

// IsTemp reports whether name is a temp file Replace creates: a non-empty
// base name, then ".tmp", then only digits.
func IsTemp(name string) bool {
	stem := strings.TrimRight(name, "0123456789")
	return stem != name && len(stem) > len(tempInfix) && strings.HasSuffix(stem, tempInfix)
}

// Replace writes data to path atomically and durably: a unique temp file
// in path's directory (same filesystem, so the rename is atomic) is
// written, fsynced, closed and renamed over path, then the directory is
// fsynced so the rename itself survives a power loss. A crash at any
// instant leaves either the old or the new content at path, never a torn
// file; a failure removes the temp file and leaves path as it was.
func Replace(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, TempPattern(path))
	if err != nil {
		return fmt.Errorf("durable: temp file for %s: %w", path, err)
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: replace %s: %w", path, err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable. Some
// platforms cannot fsync directories; the rename is already atomic, so
// durability is best-effort there.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// SweepTemp removes the temp files a crash left in dir between Replace's
// create and its rename. Such a file is never committed state: the
// target still holds the previous content. Every other name is left
// alone. A missing directory sweeps nothing.
func SweepTemp(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if IsTemp(e.Name()) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
