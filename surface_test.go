package bench

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptUncalled lists the exported functions and methods under internal/ that
// no non-test Go file calls, by the name surfaceName gives them, with the
// reason each stays.
var keptUncalled = map[string]string{
	"chaos.RunCrashSoak":                    "soak entry, the kill-9 soak scripts/crash_soak.sh runs through a test",
	"chaos.(*CrashReport).Err":              "the crash soak's test reads the soak's verdict through it",
	"core.(*Advisor).Resume":                "bench caller, bench/bench_test.go resumes a checkpoint through it",
	"cluster.(*Cluster).SetShardCacheLimit": "test seam, the only way the cache and repair tests reach LRU eviction",
	"relation.(*Arena).Footprint":           "test seam, the only way exec's scratch-recycling test sees arena growth",
	"exec.(*UnavailableError).Unwrap":       "errors.Is and errors.As call it to classify execution errors",
	"exec.(*PartitionError).Unwrap":         "errors.Is and errors.As call it to classify execution errors",
}

// goPackage is the part of `go list -json` the scan reads.
type goPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// TestNoUncalledInternalExports fails when an exported function or method
// under internal/ is used by no non-test Go file. It type-checks every
// package of the module, in dependency order, from its non-test files only,
// so a method is told apart from others of the same name by its receiver. A
// function counts as used when a non-test file refers to it; a method, when
// a non-test file selects it, or when its receiver implements an interface
// that declares it (error, fmt.Stringer, an interface of the module), since
// a call through the interface reaches it. What only tests reach is deleted
// with its tests, or listed in keptUncalled.
func TestNoUncalledInternalExports(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.ImportFrom(path, "", 0)
	})
	used := map[types.Object]bool{}
	var decls []*types.Func // exported functions and methods under internal/
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp goPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		if !strings.Contains(lp.ImportPath, "/internal/") {
			continue
		}
		for _, obj := range info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || !fn.Exported() {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv == nil || !types.IsInterface(recv.Type()) {
				decls = append(decls, fn) // interface methods are declared, not defined
			}
		}
	}

	ifaces := interfacesByMethod(checked)
	found := map[string]bool{}
	var uncalled []string
	for _, fn := range decls {
		if used[fn] || implementsDeclaring(fn, ifaces) {
			continue
		}
		name := surfaceName(fn)
		found[name] = true
		if _, ok := keptUncalled[name]; !ok {
			uncalled = append(uncalled, fset.Position(fn.Pos()).String()+": "+name)
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s is called only by tests: delete it with its tests, or list it in keptUncalled with its reason", u)
	}
	for name := range keptUncalled {
		if !found[name] {
			t.Errorf("keptUncalled lists %s, which internal/ no longer declares or a non-test file now uses: drop it from the list", name)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// interfacesByMethod indexes, by method name, the interfaces declared at
// package level in pkgs and in every package they import, plus error.
func interfacesByMethod(pkgs map[string]*types.Package) map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	add := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		iface, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			byMethod[iface.Method(i).Name()] = append(byMethod[iface.Method(i).Name()], iface)
		}
	}
	add(types.Universe.Lookup("error"))
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			add(p.Scope().Lookup(name))
		}
		for _, dep := range p.Imports() {
			walk(dep)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	return byMethod
}

// implementsDeclaring reports whether fn is a method whose receiver type
// implements one of ifaces that declares a method of fn's name.
func implementsDeclaring(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces[fn.Name()] {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// surfaceName writes fn as pkg.Func, pkg.(*T).Method or pkg.T.Method.
func surfaceName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	t, ptr := recv.Type(), false
	if p, ok := t.(*types.Pointer); ok {
		t, ptr = p.Elem(), true
	}
	tn := t.(*types.Named).Obj().Name()
	if ptr {
		tn = "(*" + tn + ")"
	}
	return fn.Pkg().Name() + "." + tn + "." + fn.Name()
}
