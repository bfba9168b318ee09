package serve

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"partadvisor/internal/durable"
)

// fsOp is one mutating filesystem operation as the state directory saw it.
type fsOp struct {
	kind     string // mkdir, create, write, sync, rename, syncdir, remove, removeall
	path, to string
	data     []byte
}

func (op fsOp) String() string {
	s := op.kind + " " + filepath.Base(op.path)
	if op.to != "" {
		s += " -> " + filepath.Base(op.to)
	}
	if op.kind == "write" {
		s += fmt.Sprintf(" (%d B)", len(op.data))
	}
	return s
}

// recordingFS forwards every operation to durable.OS and records it. The
// lock spans the real operation, so the recorded order is the order the
// directory saw, whichever goroutine wrote.
type recordingFS struct {
	mu  sync.Mutex
	ops []fsOp
}

// count is how many operations have completed.
func (r *recordingFS) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

func (r *recordingFS) do(op fsOp, f func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	err := f()
	if err == nil {
		r.ops = append(r.ops, op)
	}
	return err
}

func (r *recordingFS) CreateTemp(dir, pattern string) (durable.File, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := durable.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	r.ops = append(r.ops, fsOp{kind: "create", path: f.Name()})
	return recordedFile{f, r}, nil
}

func (r *recordingFS) Rename(from, to string) error {
	return r.do(fsOp{kind: "rename", path: from, to: to}, func() error { return durable.OS.Rename(from, to) })
}

func (r *recordingFS) SyncDir(dir string) {
	r.do(fsOp{kind: "syncdir", path: dir}, func() error { durable.OS.SyncDir(dir); return nil })
}

func (r *recordingFS) Remove(path string) error {
	return r.do(fsOp{kind: "remove", path: path}, func() error { return durable.OS.Remove(path) })
}

func (r *recordingFS) RemoveAll(path string) error {
	return r.do(fsOp{kind: "removeall", path: path}, func() error { return durable.OS.RemoveAll(path) })
}

// MkdirAll records one mkdir per directory it creates, outermost first.
func (r *recordingFS) MkdirAll(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var missing []string
	for p := path; ; p = filepath.Dir(p) {
		if _, err := os.Stat(p); err == nil || p == filepath.Dir(p) {
			break
		}
		missing = append(missing, p)
	}
	if err := durable.OS.MkdirAll(path); err != nil {
		return err
	}
	for i := len(missing) - 1; i >= 0; i-- {
		r.ops = append(r.ops, fsOp{kind: "mkdir", path: missing[i]})
	}
	return nil
}

type recordedFile struct {
	durable.File
	r *recordingFS
}

func (f recordedFile) Write(p []byte) (n int, err error) {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	n, err = f.File.Write(p)
	if n > 0 {
		f.r.ops = append(f.r.ops, fsOp{kind: "write", path: f.Name(), data: slices.Clone(p[:n])})
	}
	return n, err
}

func (f recordedFile) Sync() error {
	return f.r.do(fsOp{kind: "sync", path: f.Name()}, f.File.Sync)
}

// node is a file or directory of the simulated state directory. live is
// what a reader sees now; durable is a directory's entry table as of its
// last fsync, and synced a file's content as of its last fsync — what a
// power loss leaves.
type node struct {
	dir           bool
	live, durable map[string]*node
	data, synced  []byte
}

func newDir() *node { return &node{dir: true, live: map[string]*node{}, durable: map[string]*node{}} }

// loadNode reads a real directory as fully durable.
func loadNode(t *testing.T, path string) *node {
	t.Helper()
	entries, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	n := newDir()
	for _, e := range entries {
		p := filepath.Join(path, e.Name())
		c := &node{}
		if e.IsDir() {
			c = loadNode(t, p)
		} else if c.data, err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
		c.synced = c.data
		n.live[e.Name()] = c
	}
	n.durable = maps.Clone(n.live)
	return n
}

// model replays recorded operations over a snapshot of the directory at
// root.
type model struct {
	root  string
	top   *node
	files map[string]*node // open temp files by name
}

// lookup returns the directory holding path and path's base name, or nil
// for a path outside the model (the state directory's own parent).
func (m *model) lookup(t *testing.T, path string) (*node, string) {
	rel, err := filepath.Rel(m.root, path)
	if err != nil || rel == "." || strings.HasPrefix(rel, "..") {
		return nil, ""
	}
	parts := strings.Split(rel, string(filepath.Separator))
	dir := m.top
	for _, p := range parts[:len(parts)-1] {
		if dir = dir.live[p]; dir == nil || !dir.dir {
			t.Fatalf("replay: %s has no parent directory in the model", path)
		}
	}
	return dir, parts[len(parts)-1]
}

// apply replays op; a torn write lands only its first half.
func (m *model) apply(t *testing.T, op fsOp, torn bool) {
	switch op.kind {
	case "write":
		data := op.data
		if torn {
			data = data[:len(data)/2]
		}
		f := m.files[op.path]
		f.data = append(slices.Clip(f.data), data...)
		return
	case "sync":
		m.files[op.path].synced = slices.Clone(m.files[op.path].data)
		return
	case "syncdir":
		if d := m.top; op.path == m.root {
			d.durable = maps.Clone(d.live)
		} else if parent, name := m.lookup(t, op.path); parent != nil {
			d := parent.live[name]
			d.durable = maps.Clone(d.live)
		}
		return
	}
	parent, name := m.lookup(t, op.path)
	if parent == nil {
		return
	}
	switch op.kind {
	case "mkdir":
		parent.live[name] = newDir()
	case "create":
		f := &node{}
		parent.live[name] = f
		m.files[op.path] = f
	case "rename":
		to, toName := m.lookup(t, op.to)
		to.live[toName] = parent.live[name]
		delete(parent.live, name)
	case "remove", "removeall":
		delete(parent.live, name)
	default:
		t.Fatalf("replay: unknown op %q", op.kind)
	}
}

// write materializes n into the existing directory path: the live view,
// or what survives a power loss. It returns a digest of what it wrote.
func (n *node) write(t *testing.T, path string, powerLoss bool) string {
	entries := n.live
	if powerLoss {
		entries = n.durable
	}
	names := make([]string, 0, len(entries))
	for name := range entries {
		names = append(names, name)
	}
	sort.Strings(names)
	var sig strings.Builder
	for _, name := range names {
		c, p := entries[name], filepath.Join(path, name)
		if c.dir {
			if err := os.Mkdir(p, 0o755); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sig, "%s/{%s}", name, c.write(t, p, powerLoss))
			continue
		}
		data := c.data
		if powerLoss {
			data = c.synced
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sig, "%s=%x;", name, sha256.Sum256(data))
	}
	return sig.String()
}

// crashWant is what the acknowledged operations promise: the newest
// acknowledged generation of every tenant whose create was acknowledged
// and whose delete was not (-1 before any), the subset of those whose
// delete is in flight, and the tenants whose delete was acknowledged.
type crashWant struct {
	live     map[string]int64
	deleting map[string]bool
	gone     map[string]bool
}

// crashAck is one acknowledged call, or the start of a delete: it holds
// from the moment op count at had completed.
type crashAck struct {
	at                int
	id                string
	gen               int64 // acknowledged generation; -1 for a create
	deleting, deleted bool
}

// crashScenario is one state-directory mutation. setup runs before the
// enumeration starts; what it leaves on disk counts as durable and what it
// returns as acknowledged. Without a setup the enumeration starts from the
// empty directory the operator names, before the server opens it. run
// performs the mutation and returns its acknowledgements.
type crashScenario struct {
	name  string
	setup func(t *testing.T, s *Server) crashWant
	run   func(t *testing.T, s *Server, rec *recordingFS) []crashAck
}

// crashConfig is a server whose advising loops never tick and never
// checkpoint on their own during the test: every generation is one the
// test asks for, or a tenant's generation 0.
func crashConfig(dir string) Config {
	cfg := testConfig()
	cfg.StateDir = dir
	cfg.AdviseEvery = time.Hour
	cfg.CheckpointEvery = time.Hour
	return cfg
}

// waitGen0 waits for a new tenant's advising loop to write generation 0.
func waitGen0(t *testing.T, tn *Tenant) *Tenant {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); tn.ckptWrites.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s never wrote generation 0", tn.Spec.ID)
		}
	}
	return tn
}

// createWaitGen0 creates a tenant and waits for generation 0.
func createWaitGen0(t *testing.T, s *Server, id string) *Tenant {
	t.Helper()
	tn, err := s.CreateTenant(fastSpec(id))
	if err != nil {
		t.Fatal(err)
	}
	return waitGen0(t, tn)
}

// crashOutcome is what recovering one on-disk state produced.
type crashOutcome struct {
	err       string
	recovered map[string]TenantRecovery // the recovery report by tenant
	problems  []string                  // debris, orphans, generation numbering
}

// recoverState runs Recover on a fresh server over dir, halts it and
// inspects what it left on disk.
func recoverState(t *testing.T, dir string) crashOutcome {
	s, err := NewServer(crashConfig(dir))
	if err != nil {
		return crashOutcome{err: "open: " + err.Error()}
	}
	s.Start()
	rep, err := s.Recover()
	s.Halt()
	if err != nil {
		return crashOutcome{err: "recover: " + err.Error()}
	}
	out := crashOutcome{recovered: map[string]TenantRecovery{}}
	for _, tr := range rep.Tenants {
		out.recovered[tr.ID] = tr
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() != manifestName && e.Name() != ckptSubdir {
			out.problems = append(out.problems, "debris "+e.Name())
		}
	}
	tenantDirs, _ := os.ReadDir(filepath.Join(dir, ckptSubdir))
	for _, e := range tenantDirs {
		tn, ok := s.Tenant(e.Name())
		if !ok {
			out.problems = append(out.problems, "orphan "+ckptSubdir+"/"+e.Name())
			continue
		}
		files, _ := os.ReadDir(tn.ckptDir)
		gens, _ := listGenerations(tn.ckptDir)
		if len(gens) != len(files) {
			out.problems = append(out.problems, fmt.Sprintf("debris in %s/%s: %d files, %d generations", ckptSubdir, e.Name(), len(files), len(gens)))
		}
		if len(gens) > 0 && gens[0].Gen >= tn.nextGen.Load() {
			out.problems = append(out.problems, fmt.Sprintf("tenant %s: nextGen %d not above generation %d on disk", e.Name(), tn.nextGen.Load(), gens[0].Gen))
		}
	}
	return out
}

// violations checks an outcome against what was acknowledged.
func (w crashWant) violations(out crashOutcome) []string {
	if out.err != "" {
		return []string{out.err}
	}
	v := slices.Clone(out.problems)
	for id, gen := range w.live {
		tr, ok := out.recovered[id]
		switch {
		case !ok && w.deleting[id]:
			// The delete committed before its acknowledgement.
		case !ok:
			v = append(v, "acknowledged tenant "+id+" not recovered")
		case tr.Err != "":
			v = append(v, "tenant "+id+": "+tr.Err)
		case tr.RestoredGen < gen:
			v = append(v, fmt.Sprintf("tenant %s restored generation %d, older than acknowledged %d", id, tr.RestoredGen, gen))
		}
	}
	for id := range w.gone {
		if _, ok := out.recovered[id]; ok {
			v = append(v, "deleted tenant "+id+" came back")
		}
	}
	return v
}

// TestCrashPoints proves the state directory's durability by enumeration.
// Each scenario runs once over a recording filesystem; then, for every
// operation k it recorded, the directory is rebuilt as a crash right after
// k leaves it, in three variants:
//
//   - live: operations up to k stand, as after a process kill;
//   - torn: operation k is a write, and only half of it landed;
//   - power loss: renames, new or removed directory entries and file data
//     not yet followed by an fsync of their directory or file are undone.
//
// Recover runs on a fresh server over each distinct state, and every
// acknowledgement given before the crash must hold: a tenant whose create
// was acknowledged and whose delete was not is back without error, from a
// generation no older than the newest acknowledged one (while its delete
// is in flight it may also be gone: the manifest rename commits the delete
// before DeleteTenant returns); an acknowledged delete stays deleted;
// nextGen is above every generation on disk; no temp file and no orphan
// checkpoint directory is left.
func TestCrashPoints(t *testing.T) {
	scenarios := []crashScenario{{
		name: "create-tenant",
		run: func(t *testing.T, s *Server, rec *recordingFS) []crashAck {
			tn, err := s.CreateTenant(fastSpec("t1"))
			if err != nil {
				t.Fatal(err)
			}
			acks := []crashAck{{at: rec.count(), id: "t1", gen: -1}}
			waitGen0(t, tn)
			return append(acks, crashAck{at: rec.count(), id: "t1", gen: 0})
		},
	}, {
		name: "generation-write-and-prune",
		setup: func(t *testing.T, s *Server) crashWant {
			tn := createWaitGen0(t, s, "t1")
			tn.stopAdvising()
			for range checkpointKeep - 1 {
				if _, err := tn.saveGeneration(); err != nil {
					t.Fatal(err)
				}
			}
			return crashWant{live: map[string]int64{"t1": checkpointKeep - 1}}
		},
		run: func(t *testing.T, s *Server, rec *recordingFS) []crashAck {
			tn, _ := s.Tenant("t1")
			if _, err := tn.saveGeneration(); err != nil {
				t.Fatal(err)
			}
			return []crashAck{{at: rec.count(), id: "t1", gen: checkpointKeep}}
		},
	}, {
		name: "delete-tenant",
		setup: func(t *testing.T, s *Server) crashWant {
			createWaitGen0(t, s, "t1")
			createWaitGen0(t, s, "t2")
			return crashWant{live: map[string]int64{"t1": 0, "t2": 0}}
		},
		run: func(t *testing.T, s *Server, rec *recordingFS) []crashAck {
			begun := crashAck{at: rec.count(), id: "t1", deleting: true}
			if err := s.DeleteTenant("t1"); err != nil {
				t.Fatal(err)
			}
			return []crashAck{begun, {at: rec.count(), id: "t1", deleted: true}}
		},
	}}

	points, states := 0, 0
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			root := filepath.Join(t.TempDir(), "state")
			if err := os.Mkdir(root, 0o755); err != nil {
				t.Fatal(err)
			}
			rec := &recordingFS{}
			s, err := newServer(crashConfig(root), rec)
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			base, mark, pre := crashWant{live: map[string]int64{}}, 0, t.TempDir()
			if sc.setup != nil {
				base, mark = sc.setup(t, s), rec.count()
				loadNode(t, root).write(t, pre, false)
			}
			acks := sc.run(t, s, rec)
			s.Halt()
			ops := rec.ops[mark:]

			seen := map[string]crashOutcome{}
			failures := 0
			check := func(k int, variant string, torn, powerLoss bool) {
				m := &model{root: root, top: loadNode(t, pre), files: map[string]*node{}}
				for i, op := range ops[:k] {
					m.apply(t, op, torn && i == k-1)
				}
				dir := t.TempDir()
				sig := m.top.write(t, dir, powerLoss)
				out, ok := seen[sig]
				if !ok {
					out = recoverState(t, dir)
					seen[sig] = out
				}
				points++
				want := crashWant{live: maps.Clone(base.live), deleting: map[string]bool{}, gone: map[string]bool{}}
				for _, a := range acks {
					switch {
					case a.at > mark+k:
					case a.deleting:
						want.deleting[a.id] = true
					case a.deleted:
						delete(want.live, a.id)
						want.gone[a.id] = true
					default:
						if g, ok := want.live[a.id]; !ok || a.gen > g {
							want.live[a.id] = a.gen
						}
					}
				}
				for _, v := range want.violations(out) {
					if failures++; failures <= 8 {
						last := "nothing"
						if k > 0 {
							last = ops[k-1].String()
						}
						t.Errorf("crash after op %d/%d (%s), %s: %s", k, len(ops), last, variant, v)
					}
				}
			}
			for k := 0; k <= len(ops); k++ {
				check(k, "live", false, false)
				if k > 0 && ops[k-1].kind == "write" {
					check(k, "torn", true, false)
				}
				check(k, "power loss", false, true)
			}
			states += len(seen)
			t.Logf("%d ops recorded, %d distinct crash states", len(ops), len(seen))
		})
	}
	t.Logf("%d crash points over %d scenarios, %d distinct states recovered", points, len(scenarios), states)
}
