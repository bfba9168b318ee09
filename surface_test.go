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

// TestNoUncalledInternalExports fails when an exported declaration under
// internal/ is used by no non-test Go file: a function or method, a
// package-level type, constant or variable, or a struct field. It
// type-checks every package of the module, in dependency order, from its
// non-test files only, so a method or field is told apart from others of
// the same name by its receiver. A declaration counts as used when a
// non-test file refers to it (selects it, directly or promoted through an
// embedding type, or names it in a composite literal). A method also
// counts when its receiver, or a module type that embeds its receiver and
// so promotes it, implements an interface that declares it (error,
// fmt.Stringer, an interface of the module), since a call through the
// interface reaches it. An embedded field is used through what it
// promotes and is not scanned. What only tests reach is deleted with its
// tests, or listed in keptUncalled.
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
	var decls []types.Object // exported declarations under internal/
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
			used[origin(obj)] = true
		}
		if !strings.Contains(lp.ImportPath, "/internal/") {
			continue
		}
		for _, obj := range info.Defs {
			if obj == nil || !obj.Exported() {
				continue
			}
			switch obj := obj.(type) {
			case *types.Func:
				if recv := obj.Type().(*types.Signature).Recv(); recv == nil || !types.IsInterface(recv.Type()) {
					decls = append(decls, obj) // interface methods are declared, not defined
				}
			case *types.Var:
				if (obj.IsField() && !obj.Embedded()) || obj.Parent() == pkg.Scope() {
					decls = append(decls, obj)
				}
			case *types.TypeName, *types.Const:
				if obj.Parent() == pkg.Scope() {
					decls = append(decls, obj)
				}
			}
		}
	}

	ifaces := interfacesByMethod(checked)
	named := moduleTypes(checked)
	owners := fieldOwners(checked)
	found := map[string]bool{}
	var uncalled []string
	for _, obj := range decls {
		if used[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && reachedThroughInterface(fn, ifaces, named) {
			continue
		}
		name := surfaceName(obj, owners)
		found[name] = true
		if _, ok := keptUncalled[name]; !ok {
			uncalled = append(uncalled, fset.Position(obj.Pos()).String()+": "+name)
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s is used only by tests: delete it with its tests, or list it in keptUncalled with its reason", u)
	}
	for name := range keptUncalled {
		if !found[name] {
			t.Errorf("keptUncalled lists %s, which internal/ no longer declares or a non-test file now uses: drop it from the list", name)
		}
	}
}

// origin maps a use of an instantiated generic function, method or field
// to its declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
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

// moduleTypes lists the non-generic named types declared at package level
// in pkgs.
func moduleTypes(pkgs map[string]*types.Package) []*types.Named {
	var named []*types.Named
	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				named = append(named, n)
			}
		}
	}
	return named
}

// reachedThroughInterface reports whether a type that has method fn
// implements one of ifaces that declares a method of fn's name: fn's own
// receiver type, or a type of named that embeds the receiver and so
// promotes fn.
func reachedThroughInterface(fn *types.Func, ifaces map[string][]*types.Interface, named []*types.Named) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return false
	}
	carriers := []types.Type{t}
	for _, n := range named {
		obj, index, _ := types.LookupFieldOrMethod(types.NewPointer(n), false, fn.Pkg(), fn.Name())
		if obj == fn && len(index) > 1 {
			carriers = append(carriers, n)
		}
	}
	for _, c := range carriers {
		for _, iface := range ifaces[fn.Name()] {
			if types.Implements(c, iface) || types.Implements(types.NewPointer(c), iface) {
				return true
			}
		}
	}
	return false
}

// fieldOwners names the package-level struct type that declares each field.
func fieldOwners(pkgs map[string]*types.Package) map[*types.Var]string {
	owners := map[*types.Var]string{}
	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					owners[st.Field(i)] = name
				}
			}
		}
	}
	return owners
}

// surfaceName writes obj as pkg.Name, pkg.(*T).Method, pkg.T.Method or
// pkg.T.Field (pkg.?.Field for a field of an unnamed struct).
func surfaceName(obj types.Object, owners map[*types.Var]string) string {
	prefix := obj.Pkg().Name() + "."
	switch obj := obj.(type) {
	case *types.Var:
		if obj.IsField() {
			owner, ok := owners[obj]
			if !ok {
				owner = "?"
			}
			return prefix + owner + "." + obj.Name()
		}
	case *types.Func:
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
			t, ptr := recv.Type(), false
			if p, ok := t.(*types.Pointer); ok {
				t, ptr = p.Elem(), true
			}
			tn := t.(*types.Named).Obj().Name()
			if ptr {
				tn = "(*" + tn + ")"
			}
			return prefix + tn + "." + obj.Name()
		}
	}
	return prefix + obj.Name()
}
