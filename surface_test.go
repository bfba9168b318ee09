package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptUncalled lists the exported functions and methods under internal/ that
// no non-test Go file names, with the reason each stays.
var keptUncalled = map[string]string{
	"RunCrashSoak":       "chaos: soak entry, the kill-9 soak scripts/crash_soak.sh runs through a test",
	"Resume":             "core: bench caller, bench/bench_test.go resumes a checkpoint through it",
	"SetShardCacheLimit": "cluster: test seam, the only way the cache and repair tests reach LRU eviction",
	"Footprint":          "relation: test seam, the only way exec's scratch-recycling test sees arena growth",
	"Unwrap":             "exec: errors.Is and errors.As call it to classify execution errors",
}

// TestNoUncalledInternalExports fails when an exported function or method
// under internal/ is named in no non-test Go file other than its own
// declaration. The rule is by name: a method stays reachable when any
// selector or identifier with its name appears outside tests. What only
// tests reach is deleted with its tests, or listed in keptUncalled.
func TestNoUncalledInternalExports(t *testing.T) {
	uses := map[string]int{}  // identifiers by name in non-test files
	decls := map[string]int{} // declarations of each name, anywhere
	declared := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls[fd.Name.Name]++
			if fd.Name.IsExported() && strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				declared[fd.Name.Name] = fset.Position(fd.Pos()).String()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	for name, pos := range declared {
		if uses[name] > decls[name] {
			continue
		}
		if _, ok := keptUncalled[name]; !ok {
			uncalled = append(uncalled, pos+": "+name)
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s is named only by tests: delete it with its tests, or list it in keptUncalled with its reason", u)
	}
	for name := range keptUncalled {
		if _, ok := declared[name]; !ok {
			t.Errorf("keptUncalled lists %s, which internal/ no longer declares", name)
		} else if uses[name] > decls[name] {
			t.Errorf("keptUncalled lists %s, which a non-test file now names: drop it from the list", name)
		}
	}
}
