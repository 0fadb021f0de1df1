// Package analysis is flitvet's static-analysis framework: a small,
// dependency-free (stdlib go/* only) re-implementation of the
// golang.org/x/tools/go/analysis shape, plus the three analyzers that
// encode this repository's cross-cutting disciplines as compile-time
// checks:
//
//   - persistraw: persistence-bypassing raw writes to pmem-backed words
//     outside internal/pmem and internal/core (the fence-apply-flush
//     skeleton must not be skipped).
//   - handleclose: flow-sensitive lifecycle check that acquired handles
//     (pmem threads, heap arenas, store sessions, table handles,
//     reclamation handles) reach their Release/Close on all paths,
//     including error returns and explicit panics.
//   - hotpath: functions annotated //flit:hotpath must stay
//     allocation-free: no time.Now, no fmt, no capturing closures, no
//     map iteration, no interface-boxing conversions.
//
// Every protocol bug this repo has shipped so far (the failed-p-CAS
// flush obligation, shard-recovery interleaving, drain under-answering,
// handle leaks) was caught by an expensive dynamic battery after the
// fact; these analyzers are the review-time complement, each paired
// with the dynamic battery that motivated it (see DESIGN.md).
//
// # Annotation grammar
//
// Annotations are magic comments attached to a function declaration
// (in its doc comment or on the line of the declaration):
//
//	//flit:hotpath
//	    The function is a zero-allocation hot path; the hotpath
//	    analyzer checks its body.
//
//	//flit:rawpersist <reason>
//	    The function manages persistence manually (superblock writes,
//	    single-threaded recovery rebuild): raw pmem.Thread instructions
//	    inside it are intentional and carry their own PWB/PFence
//	    discipline. The reason is mandatory.
//
// Suppressions are per-diagnostic and must name the analyzer and a
// reason:
//
//	//flitvet:ignore <analyzer> <reason>
//
// placed on the flagged line, on the line immediately above it, or in
// the enclosing function's doc comment (which suppresses the analyzer
// for the whole function). An ignore without a reason is itself a
// diagnostic.
//
// Packages are identified by import-path suffix (for example a package
// whose path ends in "internal/pmem" is "the pmem package"), so the
// analyzers work identically on this module, on the analysistest
// fixture tree, and on the temp-module smoke tests.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //flitvet:ignore comments.
	Name string
	// Doc is the one-paragraph description shown by `flitvet -list`.
	Doc string
	// Run applies the analyzer to one package, reporting findings via
	// pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{PersistRaw, HandleClose, HotPath}
}

// ByName resolves a comma-separated analyzer list ("persistraw,hotpath");
// the empty string selects the whole suite.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies the analyzers to pkg and returns the surviving
// diagnostics: findings suppressed by a well-formed //flitvet:ignore
// are dropped, and malformed ignore comments (missing analyzer name or
// reason) are reported as findings of the pseudo-analyzer "flitvet".
// Diagnostics are sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			diags = append(diags, Diagnostic{
				Analyzer: a.Name,
				Pos:      token.Position{Filename: pkg.PkgPath},
				Message:  fmt.Sprintf("analyzer failed: %v", err),
			})
		}
	}
	diags = applyIgnores(pkg, diags)
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags
}

// ignoreDirective is one parsed //flitvet:ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
	file     string
	line     int
	// fnStart/fnEnd bound the enclosing function when the directive sits
	// in a function doc comment (0 otherwise): the suppression then
	// covers the whole body.
	fnStart, fnEnd int
	used           bool
	malformed      bool
}

// applyIgnores drops diagnostics covered by ignore directives and adds
// diagnostics for malformed or unused ones.
func applyIgnores(pkg *Package, diags []Diagnostic) []Diagnostic {
	var dirs []*ignoreDirective
	for _, f := range pkg.Files {
		fname := func(p token.Pos) string { return pkg.Fset.Position(p).Filename }
		// Function-doc directives cover the whole function.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if d := parseIgnore(c.Text); d != nil {
					d.file = fname(c.Pos())
					d.line = pkg.Fset.Position(c.Pos()).Line
					d.fnStart = pkg.Fset.Position(fd.Pos()).Line
					d.fnEnd = pkg.Fset.Position(fd.End()).Line
					dirs = append(dirs, d)
				}
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if d := parseIgnore(c.Text); d != nil {
					pos := pkg.Fset.Position(c.Pos())
					// Skip ones already collected as function-doc directives.
					dup := false
					for _, e := range dirs {
						if e.file == pos.Filename && e.line == pos.Line {
							dup = true
						}
					}
					if dup {
						continue
					}
					d.file = pos.Filename
					d.line = pos.Line
					dirs = append(dirs, d)
				}
			}
		}
	}
	var out []Diagnostic
	for _, dg := range diags {
		suppressed := false
		for _, d := range dirs {
			if d.malformed || d.analyzer != dg.Analyzer || d.file != dg.Pos.Filename {
				continue
			}
			// Same line, the line above, or anywhere in the annotated
			// function's extent.
			if d.line == dg.Pos.Line || d.line == dg.Pos.Line-1 ||
				(d.fnEnd > 0 && dg.Pos.Line >= d.fnStart && dg.Pos.Line <= d.fnEnd) {
				d.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, dg)
		}
	}
	for _, d := range dirs {
		if d.malformed {
			out = append(out, Diagnostic{
				Analyzer: "flitvet",
				Pos:      token.Position{Filename: d.file, Line: d.line},
				Message:  "malformed //flitvet:ignore: want \"//flitvet:ignore <analyzer> <reason>\"",
			})
		}
	}
	return out
}

// parseIgnore parses a //flitvet:ignore comment, returning nil for
// unrelated comments and a malformed directive when the analyzer name
// or reason is missing.
func parseIgnore(text string) *ignoreDirective {
	rest, ok := strings.CutPrefix(text, "//flitvet:ignore")
	if !ok {
		return nil
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return &ignoreDirective{malformed: true}
	}
	known := false
	for _, a := range All() {
		if a.Name == fields[0] {
			known = true
		}
	}
	if !known {
		return &ignoreDirective{malformed: true}
	}
	return &ignoreDirective{analyzer: fields[0], reason: strings.Join(fields[1:], " ")}
}

// --- shared helpers ---

// pathHasSuffix reports whether import path p ends with the given
// slash-separated suffix at a path-segment boundary ("internal/pmem"
// matches "flit/internal/pmem" but not "x/notinternal/pmem").
func pathHasSuffix(p, suffix string) bool {
	if p == suffix {
		return true
	}
	return strings.HasSuffix(p, "/"+suffix)
}

// pkgPathOf returns the import path of obj's package ("" for builtins).
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return nil
		}
	}
}

// typeIs reports whether t (possibly behind pointers) is the named type
// typeName declared in a package whose path ends in pkgSuffix.
func typeIs(t types.Type, pkgSuffix, typeName string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	if obj.Name() != typeName || obj.Pkg() == nil {
		return false
	}
	return pathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// methodCall resolves call to (receiver type, method name) when call is
// a method call expression; ok is false for plain function calls.
func methodCall(info *types.Info, call *ast.CallExpr) (recv types.Type, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	return selection.Recv(), sel.Sel.Name, true
}

// calleeFunc resolves call to the *types.Func it invokes (package-level
// function or method), or nil for closures, builtins and func values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.IndexExpr: // generic instantiation: Open[string](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				return f
			}
		}
		if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			if f, ok := info.Uses[sel.Sel].(*types.Func); ok {
				return f
			}
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				return f
			}
		}
	}
	return nil
}

// funcAnnotations collects the //flit:<name> annotations of a function
// declaration: its doc comment plus any comment on the declaration line.
func funcAnnotations(fset *token.FileSet, file *ast.File, fd *ast.FuncDecl) map[string]string {
	out := map[string]string{}
	collect := func(cg *ast.CommentGroup) {
		if cg == nil {
			return
		}
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//flit:")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			out[fields[0]] = strings.Join(fields[1:], " ")
		}
	}
	collect(fd.Doc)
	// Same-line comment after the declaration header.
	declLine := fset.Position(fd.Pos()).Line
	for _, cg := range file.Comments {
		if fset.Position(cg.Pos()).Line == declLine && cg.Pos() > fd.Pos() && cg.End() < fd.End() {
			collect(cg)
		}
	}
	return out
}

// hasAnnotation reports whether the function declaration enclosing pos
// (if any) carries the given //flit: annotation.
func hasAnnotation(fset *token.FileSet, files []*ast.File, pos token.Pos, name string) bool {
	for _, f := range files {
		if f.Pos() <= pos && pos <= f.End() {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || pos < fd.Pos() || pos > fd.End() {
					continue
				}
				_, has := funcAnnotations(fset, f, fd)[name]
				return has
			}
		}
	}
	return false
}
