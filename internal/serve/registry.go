package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"partadvisor/internal/durable"
)

// The durable state layout under Config.StateDir:
//
//	<state-dir>/manifest.json               the tenant registry
//	<state-dir>/ckpt/<tenant>/gen-%08d.ckpt checkpoint generations
//
// The manifest is the source of truth for which tenants exist: it is
// rewritten through durable.Replace on every create and delete, so the
// set of tenants survives any crash — a kill at any instant leaves
// either the previous or the new manifest intact, never a torn one. A header line carrying the SHA-256
// of the JSON body turns silent bit rot into a loud ErrCorruptManifest
// instead of a half-parsed tenant fleet.
//
// Checkpoint generations are written by each tenant's advising goroutine
// at episode boundaries and pruned to the newest K; recovery walks them
// newest-first and loads the first one that passes the core checkpoint
// integrity check.

// ErrCorruptManifest marks a tenant manifest whose checksum or framing
// does not verify. The manifest is replaced atomically, so this means
// storage-level damage, not a crash artifact — recovery refuses to guess
// and surfaces it to the operator.
var ErrCorruptManifest = errors.New("serve: corrupt tenant manifest")

const (
	manifestName   = "manifest.json"
	manifestHeader = "partadvisor-manifest v1 "
	ckptSubdir     = "ckpt"
)

// manifestBody is the JSON payload under the checksum header.
type manifestBody struct {
	Tenants []TenantSpec `json:"tenants"`
}

// registry is the durable tenant manifest: an in-memory spec map mirrored
// to an fsync'd, atomically-replaced file on every mutation.
type registry struct {
	fs  durable.FS
	dir string

	mu    sync.Mutex
	specs map[string]TenantSpec
}

// openRegistry prepares the state directory (creating it and the
// checkpoint subtree durably), sweeps temp files left by a rename that
// never happened, and loads the manifest if one exists. A crash between
// writing the manifest's temp file and the rename leaves the previous
// manifest as the newest committed state — exactly what loading ignores
// the temp debris in favor of.
func openRegistry(fs durable.FS, dir string) (*registry, error) {
	err := durable.MakeDir(fs, dir)
	if err == nil {
		err = durable.MakeDir(fs, filepath.Join(dir, ckptSubdir))
	}
	if err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	durable.SweepTemp(fs, dir)
	r := &registry{fs: fs, dir: dir, specs: make(map[string]TenantSpec)}
	data, err := os.ReadFile(r.path())
	switch {
	case errors.Is(err, os.ErrNotExist):
		return r, nil
	case err != nil:
		return nil, fmt.Errorf("serve: read manifest: %w", err)
	}
	body, err := verifyManifest(data)
	if err != nil {
		return nil, err
	}
	for _, spec := range body.Tenants {
		r.specs[spec.ID] = spec
	}
	return r, nil
}

func (r *registry) path() string { return filepath.Join(r.dir, manifestName) }

// generationDir is the directory holding one tenant's checkpoint
// generations under a state directory.
func generationDir(stateDir, id string) string {
	return filepath.Join(stateDir, ckptSubdir, id)
}

// verifyManifest checks the header line's SHA-256 against the body and
// decodes it. Every failure wraps ErrCorruptManifest.
func verifyManifest(data []byte) (*manifestBody, error) {
	nl := strings.IndexByte(string(data), '\n')
	if nl < 0 || !strings.HasPrefix(string(data[:nl]), manifestHeader) {
		return nil, fmt.Errorf("%w: missing header line", ErrCorruptManifest)
	}
	wantSum := strings.TrimSpace(strings.TrimPrefix(string(data[:nl]), manifestHeader))
	body := data[nl+1:]
	if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != wantSum {
		return nil, fmt.Errorf("%w: SHA-256 mismatch", ErrCorruptManifest)
	}
	var mb manifestBody
	if err := json.Unmarshal(body, &mb); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptManifest, err)
	}
	return &mb, nil
}

// list returns the registered specs sorted by id.
func (r *registry) list() []TenantSpec {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TenantSpec, 0, len(r.specs))
	for _, spec := range r.specs {
		out = append(out, spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// put records a tenant spec and persists the manifest before returning:
// once CreateTenant answers 201, the tenant survives a crash.
func (r *registry) put(spec TenantSpec) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, existed := r.specs[spec.ID]
	r.specs[spec.ID] = spec
	if err := r.persistLocked(); err != nil {
		if existed {
			r.specs[spec.ID] = prev
		} else {
			delete(r.specs, spec.ID)
		}
		return err
	}
	return nil
}

// delete removes a tenant spec and persists the manifest.
func (r *registry) delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, existed := r.specs[id]
	if !existed {
		return nil
	}
	delete(r.specs, id)
	if err := r.persistLocked(); err != nil {
		r.specs[id] = prev
		return err
	}
	return nil
}

// persistLocked writes the manifest through durable.Replace. Caller
// holds r.mu.
func (r *registry) persistLocked() error {
	specs := make([]TenantSpec, 0, len(r.specs))
	for _, spec := range r.specs {
		specs = append(specs, spec)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })
	data, err := encodeManifest(specs)
	if err != nil {
		return err
	}
	if err := durable.Replace(r.fs, r.path(), data); err != nil {
		return fmt.Errorf("serve: write manifest: %w", err)
	}
	return nil
}

// encodeManifest frames specs, in the order given, as verifyManifest reads
// them: the header line carrying the body's SHA-256, then the JSON body.
func encodeManifest(specs []TenantSpec) ([]byte, error) {
	payload, err := json.MarshalIndent(manifestBody{Tenants: specs}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serve: encode manifest: %w", err)
	}
	payload = append(payload, '\n')
	sum := sha256.Sum256(payload)
	return append([]byte(manifestHeader+hex.EncodeToString(sum[:])+"\n"), payload...), nil
}

// generationFile is one checkpoint generation on disk.
type generationFile struct {
	Gen  uint64
	Path string
}

// generationPath names generation gen inside a tenant's checkpoint
// directory. The fixed-width decimal keeps lexical and numeric order
// identical for human inspection; parsing uses the number.
func generationPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("gen-%08d.ckpt", gen))
}

// listGenerations returns the checkpoint generations in a tenant's
// generationDir sorted newest-first: only names generationPath writes
// count, so temp files and foreign names are ignored. A missing directory
// is an error wrapping os.ErrNotExist.
func listGenerations(dir string) ([]generationFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []generationFile
	for _, e := range entries {
		var gen uint64
		_, err := fmt.Sscanf(e.Name(), "gen-%d.ckpt", &gen)
		if err != nil || e.Name() != filepath.Base(generationPath(dir, gen)) {
			continue
		}
		out = append(out, generationFile{Gen: gen, Path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Gen > out[j].Gen })
	return out, nil
}
