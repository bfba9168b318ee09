package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"partadvisor/internal/durable"
)

// tree records every path under root: file contents, or "dir".
func tree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			out[p] = "dir"
			return nil
		}
		data, err := os.ReadFile(p)
		out[p] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// unsafeTenantIDs are ids that would escape <state-dir>/ckpt, alias it, or
// are not a plain path component.
var unsafeTenantIDs = []string{
	"", ".", "..", "../../escaped", "a/../..", "../escaped", "a/b", `a\b`,
	"sp ace", "nul\x00", "é", strings.Repeat("x", 65),
}

// TestCreateTenantRejectsUnsafeID: a tenant id names a directory under the
// state dir, so every id outside [A-Za-z0-9._-]{1,64} (and . / ..) is a 400,
// nothing appears outside <state-dir>/ckpt/<valid id>, a traversal DELETE
// removes nothing, and the manifest survives. An oversized spec is a 413.
func TestCreateTenantRejectsUnsafeID(t *testing.T) {
	root := t.TempDir()
	state := filepath.Join(root, "state")
	s := newStateServer(t, state)
	defer mustShutdown(t, s)
	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	s.MarkReady()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(hs.URL+"/tenants", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	good, _ := json.Marshal(fastSpec("good-1.x_y"))
	if code := post(good); code != http.StatusCreated {
		t.Fatalf("create with a valid id: %d, want 201", code)
	}
	manifest, err := os.ReadFile(filepath.Join(state, manifestName))
	if err != nil {
		t.Fatal(err)
	}

	for _, id := range unsafeTenantIDs {
		body, _ := json.Marshal(fastSpec(id))
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("create id %q: %d, want 400", id, code)
		}
	}
	huge := append([]byte(`{"id":"`+strings.Repeat("a", maxBody)), `"}`...)
	if code := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec: %d, want 413", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/tenants/a%2F..%2F..", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("traversal delete: %d, want 404", resp.StatusCode)
	}

	goodDir := filepath.Join(state, ckptSubdir, "good-1.x_y")
	allowed := map[string]bool{root: true, state: true, filepath.Join(state, ckptSubdir): true}
	for p := range tree(t, root) {
		if !allowed[p] && p != filepath.Join(state, manifestName) && p != goodDir && !strings.HasPrefix(p, goodDir+string(filepath.Separator)) {
			t.Errorf("unexpected path after rejected creates: %s", p)
		}
	}
	if got, err := os.ReadFile(filepath.Join(state, manifestName)); err != nil || !bytes.Equal(got, manifest) {
		t.Fatalf("manifest changed or lost (err %v)", err)
	}
	if _, ok := s.Tenant("good-1.x_y"); !ok {
		t.Fatal("valid tenant lost")
	}
}

// TestRecoveryRejectsUnsafeID: a manifest already holding an unsafe id
// (written before ids were checked) fails that tenant's recovery with the
// report's error set and touches nothing on disk.
func TestRecoveryRejectsUnsafeID(t *testing.T) {
	root := t.TempDir()
	state := filepath.Join(root, "state")
	reg, err := openRegistry(durable.OS, state)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"../escaped", "a/../.."} {
		if err := reg.put(fastSpec(id)); err != nil {
			t.Fatal(err)
		}
	}
	before := tree(t, root)

	s := newStateServer(t, state)
	defer mustShutdown(t, s)
	rep, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tenants) != 2 {
		t.Fatalf("recovery report: %+v", rep.Tenants)
	}
	for _, tr := range rep.Tenants {
		if tr.Err == "" {
			t.Errorf("tenant %q recovered; want its error set", tr.ID)
		}
		if _, ok := s.Tenant(tr.ID); ok {
			t.Errorf("tenant %q registered", tr.ID)
		}
	}
	if after := tree(t, root); !reflect.DeepEqual(after, before) {
		t.Fatalf("recovery changed the state dir:\n  before %q\n  after  %q", before, after)
	}
}
