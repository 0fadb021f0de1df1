// Every mechanism has a caller: each exported func, method, type, var and
// const declared in a non-test file under internal/ must be referenced by
// name from some non-test file of the repository — internal/, cmd/,
// examples/ and benchmark/ all count — so a mechanism whose only callers
// are its own tests fails here instead of lingering.
package flit_test

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

// exportExceptions are the exported declarations kept without a non-test
// caller on purpose, keyed "<dir>.<Name>" or "<dir>.<Type>.<Method>"; an
// entry for a type also covers its methods. An entry that excuses nothing
// fails the test, so the table cannot outlive its reasons.
var exportExceptions = map[string]string{
	"internal/core.NewPersist": "the paper's Figure 1 persist<T>: reproduction surface",
	"internal/core.Persist":    "the paper's Figure 1 persist<T>: reproduction surface",

	"internal/pheap.Heap.SetFreePoison":              "tooth: the hashtable ABA battery poisons freed blocks",
	"internal/reclaim.Handle.SetUnsafeImmediateFree": "tooth: the ABA battery must catch a free with no grace period",

	"internal/dstruct/hashtable.Table.Base":    "observation point: recovery tests walk a table's bucket heads",
	"internal/dstruct/hashtable.Table.Buckets": "observation point: recovery tests walk a table's bucket heads",
	"internal/dstruct/lockmap.Map.Buckets":     "observation point: lockmap sizing test",
	"internal/pheap.Arena.AllocStats":          "observation point: allocator, recycling and reclamation tests",
	"internal/pheap.Heap.CentralStats":         "observation point: depot tests",
	"internal/pheap.Heap.NumRootSlots":         "observation point: the store's root-region layout test",
	"internal/pmem.Memory.DirtyLines":          "observation point: drain tests poll it beside fencing threads",
	"internal/pmem.Thread.PendingLines":        "observation point: write-back queue tests",
	"internal/pmem.Thread.VirtualTime":         "observation point: virtual-clock tests (runners read Memory.MaxVirtualTime)",
	"internal/reclaim.Domain.Epoch":            "observation point: epoch-advance and orphan-rule tests",
	"internal/reclaim.Domain.NumHandles":       "observation point: handle-leak tests",
	"internal/reclaim.Domain.OrphanBlocks":     "observation point: orphan-rule tests",
	"internal/store.SessionModes":              "the mode list the store and workload tests range over",

	"internal/bench.ReportMetrics": "adapter the root package's Go benchmarks (bench_test.go) report through",
}

// exportExemptDirs hold test-support drivers: their exports serve the
// batteries.
var exportExemptDirs = map[string]bool{
	"internal/crashtest":      true,
	"internal/dstruct/dstest": true,
}

// exportExemptMethods satisfy interfaces the standard library calls.
var exportExemptMethods = map[string]bool{"Error": true, "Unwrap": true, "String": true}

// exportDecl is one exported declaration: its table key, the name a
// caller spells, and the source span whose own references do not count.
type exportDecl struct {
	key, name, where string
	recv             string // "<dir>.<Type>" of a method, "" otherwise
	pos, end         token.Pos
}

// exportUses is the repository's name-level reference table.
type exportUses struct {
	at     map[string][]token.Pos // identifier name → positions it is used at
	called map[string]bool        // names called as x.Name(...)
	fields map[string]bool        // names declared in a field list: struct fields, parameters, interface methods
}

func TestExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	uses := exportUses{at: map[string][]token.Pos{}, called: map[string]bool{}, fields: map[string]bool{}}
	var decls []exportDecl
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
		dir := filepath.ToSlash(filepath.Dir(path))
		uses.scan(f)
		if strings.HasPrefix(dir, "internal/") && !exportExemptDirs[dir] {
			decls = append(decls, exportedDecls(fset, dir, f)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 500 {
		t.Fatalf("found only %d exported declarations under internal/", len(decls))
	}
	var dead []string
	excused := map[string]bool{}
	for _, d := range decls {
		if (d.recv != "" && exportExemptMethods[d.name]) || uses.reach(d) {
			continue
		}
		if _, ok := exportExceptions[d.key]; ok {
			excused[d.key] = true
		} else if _, ok := exportExceptions[d.recv]; ok && d.recv != "" {
			excused[d.recv] = true
		} else {
			dead = append(dead, d.where+": "+d.key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests: delete it, or add it to exportExceptions with a reason", d)
	}
	for k := range exportExceptions {
		if !excused[k] {
			t.Errorf("exportExceptions entry %s excuses nothing (it has a caller, or is gone): drop it", k)
		}
	}
}

// reach reports whether d is referenced outside its own declaration. A
// method's name may also be a field's; then only a call x.Name(...)
// counts, since a bare selector could be the field.
func (u *exportUses) reach(d exportDecl) bool {
	if d.recv != "" && u.fields[d.name] {
		return u.called[d.name]
	}
	for _, p := range u.at[d.name] {
		if p < d.pos || p >= d.end {
			return true
		}
	}
	return false
}

// scan records every identifier f uses. Declared names, struct field
// names and method receivers are not uses: a method does not make its
// receiver type reachable.
func (u *exportUses) scan(f *ast.File) {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.TypeSpec:
			if n.TypeParams != nil {
				ast.Inspect(n.TypeParams, visit)
			}
			ast.Inspect(n.Type, visit)
			return false
		case *ast.ValueSpec:
			if n.Type != nil {
				ast.Inspect(n.Type, visit)
			}
			for _, v := range n.Values {
				ast.Inspect(v, visit)
			}
			return false
		case *ast.Field:
			for _, name := range n.Names {
				u.fields[name.Name] = true
			}
			ast.Inspect(n.Type, visit)
			return false
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				u.called[sel.Sel.Name] = true
			}
		case *ast.Ident:
			u.at[n.Name] = append(u.at[n.Name], n.Pos())
		}
		return true
	}
	for _, d := range f.Decls {
		ast.Inspect(d, visit)
	}
}

// exportedDecls lists f's exported top-level declarations.
func exportedDecls(fset *token.FileSet, dir string, f *ast.File) []exportDecl {
	var out []exportDecl
	add := func(recv string, name *ast.Ident, span ast.Node) {
		if !name.IsExported() {
			return
		}
		d := exportDecl{key: dir + "." + name.Name, name: name.Name,
			where: fset.Position(name.Pos()).String(), pos: span.Pos(), end: span.End()}
		if recv != "" {
			d.recv = dir + "." + recv
			d.key = d.recv + "." + name.Name
		}
		out = append(out, d)
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add("", d.Name, d)
			} else if recv := receiverName(d.Recv.List[0].Type); ast.IsExported(recv) {
				add(recv, d.Name, d)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add("", s.Name, s)
				case *ast.ValueSpec:
					for _, name := range s.Names {
						add("", name, s)
					}
				}
			}
		}
	}
	return out
}

// receiverName strips a receiver type expression (*T, T[K], *T[K, V]) to T.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
