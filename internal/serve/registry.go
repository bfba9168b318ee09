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
	dir string

	mu    sync.Mutex
	specs map[string]TenantSpec
}

// openRegistry prepares the state directory (creating it and the
// checkpoint subtree), sweeps temp files left by a rename that never
// happened, and loads the manifest if one exists. A crash between
// writing the manifest's temp file and the rename leaves the previous
// manifest as the newest committed state — exactly what loading ignores
// the temp debris in favor of.
func openRegistry(dir string) (*registry, error) {
	if err := os.MkdirAll(filepath.Join(dir, ckptSubdir), 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	durable.SweepTemp(dir)
	r := &registry{dir: dir, specs: make(map[string]TenantSpec)}
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

// GenerationDir is the directory holding one tenant's checkpoint
// generations under a state directory.
func GenerationDir(stateDir, id string) string {
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
	body := manifestBody{Tenants: make([]TenantSpec, 0, len(r.specs))}
	for _, spec := range r.specs {
		body.Tenants = append(body.Tenants, spec)
	}
	sort.Slice(body.Tenants, func(i, j int) bool { return body.Tenants[i].ID < body.Tenants[j].ID })
	payload, err := json.MarshalIndent(body, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode manifest: %w", err)
	}
	payload = append(payload, '\n')
	sum := sha256.Sum256(payload)
	data := append([]byte(manifestHeader+hex.EncodeToString(sum[:])+"\n"), payload...)
	if err := durable.Replace(r.path(), data); err != nil {
		return fmt.Errorf("serve: write manifest: %w", err)
	}
	return nil
}

// GenerationFile is one checkpoint generation on disk.
type GenerationFile struct {
	Gen  uint64
	Path string
}

// generationPath names generation gen inside a tenant's checkpoint
// directory. The fixed-width decimal keeps lexical and numeric order
// identical for human inspection; parsing uses the number.
func generationPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("gen-%08d.ckpt", gen))
}

// ListGenerations returns the checkpoint generations in a tenant's
// GenerationDir sorted newest-first: only names generationPath writes
// count, so temp files and foreign names are ignored. A missing directory
// is an empty list, not an error. Recovery and the crash soak read the
// layout through it.
func ListGenerations(dir string) ([]GenerationFile, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []GenerationFile
	for _, e := range entries {
		var gen uint64
		_, err := fmt.Sscanf(e.Name(), "gen-%d.ckpt", &gen)
		if err != nil || e.Name() != filepath.Base(generationPath(dir, gen)) {
			continue
		}
		out = append(out, GenerationFile{Gen: gen, Path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Gen > out[j].Gen })
	return out, nil
}
