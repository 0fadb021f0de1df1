// Every mechanism has a caller and every knob a setter. Each exported
// func, method, type, var and const declared in a non-test file under
// internal/ must be used from some non-test file of the repository —
// internal/, cmd/, examples/ and benchmark/ all count — and each exported
// field of an exported struct there must be written by one. Uses are
// resolved by type, not matched by name, so a mechanism whose only
// callers are its own tests, or a field only a test sets, fails here
// instead of lingering.
package flit_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"flit/internal/analysis"
)

// exportExceptions are the exported declarations kept without a non-test
// caller (or a field without a non-test setter) on purpose, keyed
// "<dir>.<Name>", "<dir>.<Type>.<Method>" or "<dir>.<Type>.<Field>"; an
// entry for a type also covers its methods and fields. An entry that
// excuses nothing fails the test, so the table cannot outlive its reasons.
var exportExceptions = map[string]string{
	"internal/core.NewPersist": "the paper's Figure 1 persist<T>: reproduction surface",
	"internal/core.Persist":    "the paper's Figure 1 persist<T>: reproduction surface",

	"internal/pheap.Heap.SetFreePoison":              "tooth: the hashtable ABA battery poisons freed blocks",
	"internal/reclaim.Handle.SetUnsafeImmediateFree": "tooth: the ABA battery must catch a free with no grace period",
	"internal/reclaim.Handle.Flush":                  "tooth: dstruct's TestRetireWaitsForTheWindow drains a handle to see what a window retired",

	"internal/dstruct/bst.Thread.Ctx":      "tooth: crash tests arm countdowns through Ctx().T",
	"internal/dstruct/lockmap.Thread.Ctx":  "tooth: crash tests arm countdowns through Ctx().T",
	"internal/dstruct/skiplist.Thread.Ctx": "tooth: crash tests arm countdowns through Ctx().T",
	"internal/dstruct/bst.Thread.Get":      "dstest's goldenScript drives it: TestGoldenInstructionCounts pins its counts",
	"internal/dstruct/lockmap.Thread.Get":  "dstest's goldenScript drives it: TestGoldenInstructionCounts pins its counts",
	"internal/dstruct/list.Thread.Add":     "dstest's goldenScript drives it: TestGoldenInstructionCounts pins its counts",

	"internal/dstruct/hashtable.Table.Base":    "observation point: recovery tests walk a table's bucket heads",
	"internal/dstruct/hashtable.Table.Buckets": "observation point: recovery tests walk a table's bucket heads",
	"internal/dstruct/lockmap.Map.Buckets":     "observation point: lockmap sizing test",
	"internal/pheap.Arena.AllocStats":          "observation point: allocator, recycling and reclamation tests",
	"internal/pheap.Heap.CentralStats":         "observation point: depot tests",
	"internal/pheap.Heap.NumRootSlots":         "observation point: the store's root-region layout test",
	"internal/pmem.Memory.DirtyLines":          "observation point: drain tests poll it beside fencing threads",
	"internal/pmem.Memory.PersistedWord":       "observation point: pmem's and core's tests read the persistent shadow word by word",
	"internal/pmem.Thread.PendingLines":        "observation point: write-back queue tests",
	"internal/pmem.Thread.VirtualTime":         "observation point: virtual-clock tests (runners read Memory.MaxVirtualTime)",
	"internal/reclaim.Domain.Epoch":            "observation point: epoch-advance and orphan-rule tests",
	"internal/reclaim.Domain.OrphanBlocks":     "observation point: orphan-rule tests",
	"internal/store.SessionModes":              "the mode list the store and workload tests range over",

	"internal/bench.ReportMetrics":  "adapter the root package's Go benchmarks (bench_test.go) report through",
	"internal/client.Conn.Contains": "the wire's CONTAINS round trip: server's TestServerRoundTrips drives every opcode through the synchronous client",
}

// exportExemptDirs hold test-support drivers: their exports serve the
// batteries.
var exportExemptDirs = map[string]bool{
	"internal/crashtest":      true,
	"internal/dstruct/dstest": true,
}

// exportExemptMethods satisfy interfaces the standard library calls.
var exportExemptMethods = map[string]bool{"Error": true, "Unwrap": true, "String": true}

func TestExportsHaveCallers(t *testing.T) {
	var pkgs []*analysis.Package
	for _, dir := range []string{".", "benchmark"} {
		pkgs = append(pkgs, loadExports(t, dir, "./...")...)
	}
	declared, dead := unreachedExports(pkgs, func(dir string) bool {
		return strings.HasPrefix(dir, "internal/") && !exportExemptDirs[dir]
	})
	if declared < 500 {
		t.Fatalf("found only %d exported declarations under internal/", declared)
	}
	excused := map[string]bool{}
	for _, d := range dead {
		if _, ok := exportExceptions[d.key]; ok {
			excused[d.key] = true
		} else if _, ok := exportExceptions[d.owner]; ok && d.owner != "" {
			excused[d.owner] = true
		} else if d.field {
			t.Errorf("%s: %s is set by no code outside tests: delete it, or add it to exportExceptions with a reason", d.where, d.key)
		} else {
			t.Errorf("%s: %s has no caller outside tests: delete it, or add it to exportExceptions with a reason", d.where, d.key)
		}
	}
	for k := range exportExceptions {
		if !excused[k] {
			t.Errorf("exportExceptions entry %s excuses nothing (it has a caller, or is gone): drop it", k)
		}
	}
}

// TestExportsGateHasTeeth runs the gate's resolver on a fixture whose
// findings are known: a method named like a type, a method named like a
// used interface's that its type does not implement, and a field only a
// test sets must be reported; a method reached only through an interface
// or a type parameter's constraint, and fields written through an index,
// copy, an address, a pointer method of an element or a struct
// conversion, must not.
func TestExportsGateHasTeeth(t *testing.T) {
	pkgs := loadExports(t, ".", "./testdata/exports/...")
	_, dead := unreachedExports(pkgs, func(dir string) bool { return dir == "testdata/exports/def" })
	var got []string
	for _, d := range dead {
		got = append(got, d.key)
	}
	want := []string{"testdata/exports/def.Config.TestOnly", "testdata/exports/def.Handle.Domain", "testdata/exports/def.Stray.Run"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("fixture findings = %v, want %v", got, want)
	}
}

// loadExports type-checks the non-test files of the packages patterns
// match in dir's module; a package that does not check fails the test.
func loadExports(t *testing.T, dir string, patterns ...string) []*analysis.Package {
	t.Helper()
	goTool(t)
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, e := range p.LoadErrors {
			t.Fatalf("%s: %s", p.PkgPath, e)
		}
	}
	return pkgs
}

// exportFinding is one exported declaration nothing outside tests
// reaches, or one exported field nothing outside tests writes.
type exportFinding struct {
	key   string // "<dir>.<Name>", "<dir>.<Type>.<Method>" or "<dir>.<Type>.<Field>"
	owner string // "<dir>.<Type>" of a method or field, "" otherwise
	where string
	field bool
	recv  *types.Named // a method's receiver type, nil otherwise
}

// exportSpan is a declaration's own source: uses inside it do not count.
type exportSpan struct {
	fset     *token.FileSet
	pos, end token.Pos
}

// exportGate resolves uses and writes across every loaded package.
type exportGate struct {
	owners  map[*types.Package]map[*types.Var]string // field → its key, per declaring package
	spans   map[string]exportSpan
	used    map[string]bool
	iface   map[string][]*types.Interface // method name → the interfaces it is used through
	written map[string]bool
}

// unreachedExports lists, sorted by key, the exported declarations of the
// packages whose module-relative directory declares accepts that no use
// in pkgs' non-test files resolves to, and the exported fields of their
// exported structs that nothing in pkgs writes. It also returns how many
// declarations and fields it checked. A use of an interface method (a
// type parameter's included: its constraint is the interface) reaches a
// concrete method of that name only when the concrete type, or a pointer
// to it, implements that interface.
func unreachedExports(pkgs []*analysis.Package, declares func(dir string) bool) (int, []exportFinding) {
	g := exportGate{owners: map[*types.Package]map[*types.Var]string{}, spans: map[string]exportSpan{},
		used: map[string]bool{}, iface: map[string][]*types.Interface{}, written: map[string]bool{}}
	var decls []exportFinding
	for _, p := range pkgs {
		if declares(moduleDir(p.PkgPath)) {
			decls = append(decls, g.declared(p)...)
		}
	}
	for _, p := range pkgs {
		g.scan(p)
	}
	var dead []exportFinding
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		switch {
		case d.field:
			if g.written[d.key] {
				continue
			}
		case g.used[d.key], d.owner != "" && (exportExemptMethods[name] || g.implementsUsed(d.recv, name)):
			continue
		}
		dead = append(dead, d)
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key < dead[j].key })
	return len(decls), dead
}

// implementsUsed reports whether named, or a pointer to it, implements an
// interface whose method name is used through. A generic type is checked
// uninstantiated, by method names: it implements an interface when its
// method set holds every method the interface names.
func (g *exportGate) implementsUsed(named *types.Named, name string) bool {
	if named == nil {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range g.iface[name] {
		if named.TypeParams().Len() == 0 {
			if types.Implements(named, it) || types.Implements(ptr, it) {
				return true
			}
			continue
		}
		ms := types.NewMethodSet(ptr)
		all := true
		for i := 0; i < it.NumMethods() && all; i++ {
			all = ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()) != nil
		}
		if all {
			return true
		}
	}
	return false
}

// moduleDir strips the module path from an import path.
func moduleDir(path string) string { return strings.TrimPrefix(path, "flit/") }

// declared lists p's exported top-level declarations, methods of its
// exported types and fields of its exported structs, and records each
// declaration's span.
func (g *exportGate) declared(p *analysis.Package) []exportFinding {
	var out []exportFinding
	add := func(id *ast.Ident, span ast.Node, field bool) {
		obj := p.TypesInfo.Defs[id]
		if obj == nil || !id.IsExported() {
			return
		}
		d := exportFinding{key: g.keyOf(obj), where: p.Fset.Position(id.Pos()).String(), field: field}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				d.recv = namedOf(recv.Type())
			}
		}
		if d.key == "" {
			return
		}
		if owner := strings.TrimSuffix(d.key, "."+id.Name); owner != moduleDir(p.PkgPath) {
			if !ast.IsExported(owner[strings.LastIndex(owner, ".")+1:]) {
				return // a method of an unexported type
			}
			d.owner = owner
		}
		g.spans[d.key] = exportSpan{p.Fset, span.Pos(), span.End()}
		out = append(out, d)
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				add(decl.Name, decl, false)
			case *ast.GenDecl:
				for _, s := range decl.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s, false)
						if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
							for _, fld := range st.Fields.List {
								for _, name := range fld.Names {
									add(name, fld, true)
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							add(name, s, false)
						}
					}
				}
			}
		}
	}
	return out
}

// scan records p's uses and field writes. A method's receiver does not
// use its type, and a use inside the used declaration's own span does
// not count.
func (g *exportGate) scan(p *analysis.Package) {
	info := p.TypesInfo
	receivers := map[*ast.Ident]bool{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receivers[id] = true
					}
					return true
				})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g.writes(info, n)
			return true
		})
	}
	for id, obj := range info.Uses {
		if receivers[id] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				it := recv.Type().Underlying().(*types.Interface)
				g.iface[fn.Name()] = append(g.iface[fn.Name()], it)
			}
		}
		key := g.keyOf(obj)
		if s, ok := g.spans[key]; ok && s.fset == p.Fset && id.Pos() >= s.pos && id.Pos() < s.end {
			continue
		}
		if key != "" {
			g.used[key] = true
		}
	}
}

// writes records the fields node n writes: a keyed or positional
// composite literal, an assignment, ++/--, &x.f, copy into x.f, a
// pointer method called on x.f, and a conversion to a struct type. A
// write to x.f[i] or x.f.g writes x.f too.
func (g *exportGate) writes(info *types.Info, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			g.lvalue(info, lhs)
		}
	case *ast.IncDecStmt:
		g.lvalue(info, n.X)
	case *ast.RangeStmt:
		if n.Tok == token.ASSIGN {
			g.lvalue(info, n.Key)
			g.lvalue(info, n.Value)
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			g.lvalue(info, n.X)
		}
	case *ast.CompositeLit:
		st := structOf(info.TypeOf(n))
		if st == nil {
			return
		}
		if len(n.Elts) > 0 {
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
				g.writeAll(st)
				return
			}
		}
		for _, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				g.write(info, identOf(kv.Key))
			}
		}
	case *ast.CallExpr:
		if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
			if st := structOf(tv.Type); st != nil {
				g.writeAll(st)
			}
		} else if b, ok := info.Uses[identOf(n.Fun)].(*types.Builtin); ok && b.Name() == "copy" {
			g.lvalue(info, n.Args[0])
		}
	case *ast.SelectorExpr:
		sel := info.Selections[n]
		if sel == nil || sel.Kind() != types.MethodVal {
			return
		}
		_, ptrMethod := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
		_, ptrOperand := sel.Recv().Underlying().(*types.Pointer)
		if ptrMethod && !ptrOperand {
			g.lvalue(info, n.X)
		}
	}
}

// lvalue marks every field on the access path of e as written.
func (g *exportGate) lvalue(info *types.Info, e ast.Expr) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			g.write(info, x.Sel)
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return
		}
	}
}

// write marks the field id names, if it names one, as written.
func (g *exportGate) write(info *types.Info, id *ast.Ident) {
	if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
		g.written[g.fieldKey(v)] = true
	}
}

// writeAll marks every field of st as written.
func (g *exportGate) writeAll(st *types.Struct) {
	for i := 0; i < st.NumFields(); i++ {
		g.written[g.fieldKey(st.Field(i))] = true
	}
}

// keyOf names obj as exportFinding keys do, or "" for an object no key
// names (a local, a field of an unnamed struct, a method of an unnamed
// interface).
func (g *exportGate) keyOf(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	dir := moduleDir(obj.Pkg().Path())
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Origin().Type().(*types.Signature).Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil {
				return ""
			}
			return dir + "." + named.Obj().Name() + "." + o.Name()
		}
	case *types.Var:
		if o.IsField() {
			return g.fieldKey(o)
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return dir + "." + obj.Name()
}

// fieldKey names a field of a package-level struct type
// "<dir>.<Type>.<Field>", or "" for any other field.
func (g *exportGate) fieldKey(v *types.Var) string {
	v = v.Origin()
	pkg := v.Pkg()
	if pkg == nil {
		return ""
	}
	owners, ok := g.owners[pkg]
	if !ok {
		owners = map[*types.Var]string{}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					owners[st.Field(i)] = moduleDir(pkg.Path()) + "." + name + "." + st.Field(i).Name()
				}
			}
		}
		g.owners[pkg] = owners
	}
	return owners[v]
}

// namedOf strips pointers and aliases off t down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := types.Unalias(t).(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// structOf is the struct type t (or *t) is, or nil.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// identOf is the identifier e names, or nil.
func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}
