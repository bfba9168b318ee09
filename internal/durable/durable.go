// Package durable is the one place advisord's state directory is written.
// FS is the seam every mutating filesystem operation on it goes through,
// and OS its one implementation; reads stay on package os. Replace is the
// atomic-replace protocol every piece of persistent state goes through
// (checkpoint generations and the tenant manifest), MakeDir creates a
// directory whose entry survives a power loss, and SweepTemp removes the
// temp files a crash can leave behind Replace.
package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// FS is the set of mutating filesystem operations. SyncDir is best-effort:
// some platforms cannot fsync a directory, and a rename is atomic without
// it.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	SyncDir(dir string)
	MkdirAll(path string) error
	Remove(path string) error
	RemoveAll(path string) error
}

// File is a file CreateTemp opened for writing.
type File interface {
	Name() string
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) MkdirAll(path string) error           { return os.MkdirAll(path, 0o755) }
func (osFS) Remove(path string) error             { return os.Remove(path) }
func (osFS) RemoveAll(path string) error          { return os.RemoveAll(path) }

func (osFS) SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// tempInfix separates a target's base name from the random digits
// CreateTemp appends: Replace writes path's new content to
// "<base>.tmp<digits>" beside it.
const tempInfix = ".tmp"

// isTemp reports whether name is a temp file Replace creates: a non-empty
// base name, then ".tmp", then only digits.
func isTemp(name string) bool {
	stem := strings.TrimRight(name, "0123456789")
	return stem != name && len(stem) > len(tempInfix) && strings.HasSuffix(stem, tempInfix)
}

// Replace writes data to path atomically and durably: a unique temp file
// in path's directory (same filesystem, so the rename is atomic) is
// written, fsynced, closed and renamed over path, then the directory is
// fsynced so the rename itself survives a power loss. A crash at any
// instant leaves either the old or the new content at path, never a torn
// file; a failure removes the temp file and leaves path as it was.
func Replace(fs FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := fs.CreateTemp(dir, filepath.Base(path)+tempInfix+"*")
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
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("durable: replace %s: %w", path, err)
	}
	fs.SyncDir(dir)
	return nil
}

// MakeDir creates path and any missing parents, then fsyncs path's parent
// so the new entry survives a power loss: without that a crash can drop
// the directory, and every file made durable inside it with it. An
// existing directory is not an error.
func MakeDir(fs FS, path string) error {
	if err := fs.MkdirAll(path); err != nil {
		return fmt.Errorf("durable: mkdir %s: %w", path, err)
	}
	fs.SyncDir(filepath.Dir(path))
	return nil
}

// SweepTemp removes the temp files a crash left in dir between Replace's
// create and its rename. Such a file is never committed state: the
// target still holds the previous content. Every other name is left
// alone. A missing directory sweeps nothing.
func SweepTemp(fs FS, dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if isTemp(e.Name()) {
			fs.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
