package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HandleClose is a flow-sensitive check that every acquired handle
// reaches its release on all paths out of the acquiring function —
// including early error returns and explicit panics — unless ownership
// demonstrably escapes (stored in a struct, passed to another call,
// returned to the caller).
//
// PR 9 fixed this leak class dynamically (pmem thread-slot exhaustion,
// arena leaks on the shard-split error path); this analyzer prevents it
// at review time.
var HandleClose = &Analyzer{
	Name: "handleclose",
	Doc: "flow-sensitive check that acquired handles (pmem.Memory.RegisterThread, " +
		"pheap.Heap.NewArena, store.Open sessions, reclaim.Domain.NewHandleOwned, " +
		"dstruct Open/NewThread handles) reach Release/Close on every path out of the " +
		"acquiring function, including error returns and explicit panics",
	Run: runHandleClose,
}

// handleSpec describes one acquisition → release pairing. Acquisitions
// are matched by callee method/function name and defining package
// suffix; the release is any of releaseNames invoked on the acquired
// value.
type handleSpec struct {
	pkgSuffix    string
	acquireNames map[string]bool
	releaseNames map[string]bool
	what         string
}

var handleSpecs = []handleSpec{
	{
		pkgSuffix:    "internal/pmem",
		acquireNames: map[string]bool{"RegisterThread": true, "NewThread": true},
		releaseNames: map[string]bool{"Release": true},
		what:         "pmem thread",
	},
	{
		pkgSuffix:    "internal/pheap",
		acquireNames: map[string]bool{"NewArena": true},
		releaseNames: map[string]bool{"Release": true},
		what:         "heap arena",
	},
	{
		pkgSuffix:    "internal/store",
		acquireNames: map[string]bool{"Open": true},
		releaseNames: map[string]bool{"Close": true},
		what:         "store session",
	},
	{
		pkgSuffix:    "internal/reclaim",
		acquireNames: map[string]bool{"NewHandleOwned": true},
		releaseNames: map[string]bool{"Close": true},
		what:         "reclamation handle",
	},
}

// Every durable structure hands out per-goroutine handles the same way —
// dstruct.Config.Open underneath, Open/NewThread on the structure (and on
// the dstruct.Set interface) on top — and every one of them is Closed.
func init() {
	for _, sub := range []string{"", "/list", "/hashtable", "/skiplist", "/bst", "/lockmap", "/queue"} {
		handleSpecs = append(handleSpecs, handleSpec{
			pkgSuffix:    "internal/dstruct" + sub,
			acquireNames: map[string]bool{"Open": true, "NewThread": true},
			releaseNames: map[string]bool{"Close": true},
			what:         "structure thread handle",
		})
	}
}

func runHandleClose(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncHandles(pass, fd.Body)
		}
	}
	return nil
}

// acquisition is one tracked handle: the local variable it was assigned
// to, the spec that matched, and the statement chain from the
// acquisition to the end of the function.
type acquisition struct {
	obj  types.Object
	spec *handleSpec
	pos  token.Pos
}

// checkFuncHandles finds handle acquisitions assigned to fresh local
// variables in body and verifies each reaches release on all paths.
func checkFuncHandles(pass *Pass, body *ast.BlockStmt) {
	// Locate acquisitions: `x := <acquire call>` or `x, err := ...`.
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // closures are analyzed via their own paths below
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		spec := matchAcquire(pass.TypesInfo, call)
		if spec == nil {
			return true
		}
		// The handle is whichever LHS variable got a type from the
		// spec's package (handles (h, err) shapes).
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			if n := namedOf(obj.Type()); n == nil || n.Obj().Pkg() == nil ||
				!pathHasSuffix(n.Obj().Pkg().Path(), spec.pkgSuffix) {
				continue
			}
			acq := &acquisition{obj: obj, spec: spec, pos: as.Pos()}
			chain := remainderChain(body, as)
			if chain == nil {
				continue
			}
			w := &handleWalker{pass: pass, acq: acq}
			terminated := false
			for _, seg := range chain {
				if terminated || w.st != hLive {
					break
				}
				terminated = w.walkStmts(seg)
			}
			if !terminated && w.st == hLive && !w.deferred && !w.reported {
				pass.Reportf(acq.pos, "%s acquired here is never released (want %s)",
					acq.spec.what, nameList(acq.spec.releaseNames))
			}
		}
		return true
	})
}

// matchAcquire reports the handleSpec matched by call, or nil.
func matchAcquire(info *types.Info, call *ast.CallExpr) *handleSpec {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil
	}
	for i := range handleSpecs {
		spec := &handleSpecs[i]
		if !spec.acquireNames[fn.Name()] {
			continue
		}
		if pathHasSuffix(pkgPathOf(fn), spec.pkgSuffix) {
			return spec
		}
	}
	return nil
}

// remainderChain returns the statement lists from target to the end of
// the function: the tail of target's own block (after target), then
// the tail of each enclosing block after the statement containing it.
func remainderChain(body *ast.BlockStmt, target ast.Stmt) [][]ast.Stmt {
	var chain [][]ast.Stmt
	var find func(list []ast.Stmt) bool
	find = func(list []ast.Stmt) bool {
		for i, s := range list {
			if s == target {
				chain = append(chain, list[i+1:])
				return true
			}
			found := false
			ast.Inspect(s, func(n ast.Node) bool {
				if found {
					return false
				}
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false
				}
				if blk, ok := n.(*ast.BlockStmt); ok && blk != nil {
					if find(blk.List) {
						found = true
						return false
					}
				}
				if cc, ok := n.(*ast.CaseClause); ok {
					if find(cc.Body) {
						found = true
						return false
					}
				}
				if cc, ok := n.(*ast.CommClause); ok {
					if find(cc.Body) {
						found = true
						return false
					}
				}
				return true
			})
			if found {
				chain = append(chain, list[i+1:])
				return true
			}
		}
		return false
	}
	if !find(body.List) {
		return nil
	}
	return chain
}

type hstate int

const (
	hLive hstate = iota
	hReleased
	hEscaped
)

// handleWalker evaluates the statements after an acquisition,
// tracking whether the handle has been released, escaped, or is still
// live. It is deliberately conservative: any use of the handle other
// than a release call, a nil comparison, or a field read makes it
// escape (ownership transferred — stop tracking).
type handleWalker struct {
	pass     *Pass
	acq      *acquisition
	st       hstate
	deferred bool // a deferred release covers every later exit
	reported bool
}

// walkStmts evaluates list; the return value reports whether the path
// terminated (return/panic/branch) within it.
func (w *handleWalker) walkStmts(list []ast.Stmt) (terminated bool) {
	for _, s := range list {
		if w.st != hLive && !w.deferred {
			// Released or escaped: nothing more to check on this path.
			return false
		}
		if w.walkStmt(s) {
			return true
		}
	}
	return false
}

func (w *handleWalker) walkStmt(s ast.Stmt) (terminated bool) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		call, ok := ast.Unparen(st.X).(*ast.CallExpr)
		if ok && w.isReleaseCall(call) {
			w.st = hReleased
			return false
		}
		if ok && isPanicCall(w.pass.TypesInfo, call) {
			if w.st == hLive && !w.deferred && !w.reported {
				w.report(st.Pos(), "panics")
			}
			return true
		}
		if w.usesHandle(st.X) {
			w.st = hEscaped
		}
	case *ast.DeferStmt:
		if w.isReleaseCall(st.Call) || w.deferredLitReleases(st.Call) {
			w.deferred = true
			return false
		}
		if w.usesHandle(st.Call) {
			w.st = hEscaped
		}
	case *ast.GoStmt:
		if w.usesHandle(st.Call) {
			w.st = hEscaped
		}
	case *ast.AssignStmt:
		for _, l := range st.Lhs {
			if id, ok := l.(*ast.Ident); ok && w.pass.TypesInfo.Uses[id] == w.acq.obj {
				w.st = hEscaped // reassigned; stop tracking
				return false
			}
		}
		for _, r := range st.Rhs {
			if w.usesHandle(r) {
				w.st = hEscaped
				return false
			}
		}
		for _, l := range st.Lhs {
			if w.usesHandle(l) { // e.g. c.t = t via selector on handle? (lhs uses)
				w.st = hEscaped
				return false
			}
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			if w.usesHandle(r) {
				w.st = hEscaped // returned to caller: ownership transferred
				return true
			}
		}
		if w.st == hLive && !w.deferred && !w.reported {
			w.report(st.Pos(), "returns")
		}
		return true
	case *ast.IfStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		if w.usesHandleNonCompare(st.Cond) {
			w.st = hEscaped
			return false
		}
		pre := w.snapshot()
		thenTerm := w.walkStmts(st.Body.List)
		thenExit := w.snapshot()
		w.restore(pre)
		elseTerm := false
		if st.Else != nil {
			elseTerm = w.walkStmt(st.Else)
		}
		elseExit := w.snapshot()
		w.joinBranches(pre, thenExit, thenTerm, elseExit, elseTerm)
		return thenTerm && elseTerm && st.Else != nil
	case *ast.BlockStmt:
		return w.walkStmts(st.List)
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		if st.Cond != nil && w.usesHandleNonCompare(st.Cond) {
			w.st = hEscaped
			return false
		}
		w.walkStmts(st.Body.List) // optimistic: adopt body effects
		return false
	case *ast.RangeStmt:
		if w.usesHandleNonCompare(st.X) {
			w.st = hEscaped
			return false
		}
		w.walkStmts(st.Body.List)
		return false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.walkSwitch(st)
		return false
	case *ast.LabeledStmt:
		return w.walkStmt(st.Stmt)
	case *ast.BranchStmt:
		// break/continue/goto: path leaves this region; approximate as
		// terminated so we don't mis-report the fallthrough state.
		return true
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		if w.usesHandleNode(s) {
			w.st = hEscaped
		}
	}
	return false
}

type hsnap struct {
	st       hstate
	deferred bool
}

func (w *handleWalker) snapshot() hsnap { return hsnap{w.st, w.deferred} }
func (w *handleWalker) restore(s hsnap) { w.st, w.deferred = s.st, s.deferred }

// joinBranches merges the exits of an if/else. Escape on any live
// branch wins (stop tracking — conservative against false positives);
// otherwise the handle counts released only if all live branches
// released it.
func (w *handleWalker) joinBranches(pre hsnap, a hsnap, aTerm bool, b hsnap, bTerm bool) {
	exits := []hsnap{}
	if !aTerm {
		exits = append(exits, a)
	}
	if !bTerm {
		exits = append(exits, b)
	}
	if len(exits) == 0 {
		w.restore(pre)
		return
	}
	joined := exits[0]
	for _, e := range exits[1:] {
		if e.st == hEscaped || joined.st == hEscaped {
			joined.st = hEscaped
		} else if e.st == hLive || joined.st == hLive {
			joined.st = hLive
		}
		joined.deferred = joined.deferred && e.deferred
	}
	// A deferred release in every surviving branch counts globally.
	w.restore(joined)
}

func (w *handleWalker) walkSwitch(s ast.Stmt) {
	pre := w.snapshot()
	var bodies [][]ast.Stmt
	hasDefault := false
	collect := func(body []ast.Stmt, isDefault bool) {
		bodies = append(bodies, body)
		hasDefault = hasDefault || isDefault
	}
	switch sw := s.(type) {
	case *ast.SwitchStmt:
		for _, c := range sw.Body.List {
			cc := c.(*ast.CaseClause)
			collect(cc.Body, cc.List == nil)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range sw.Body.List {
			cc := c.(*ast.CaseClause)
			collect(cc.Body, cc.List == nil)
		}
	case *ast.SelectStmt:
		for _, c := range sw.Body.List {
			cc := c.(*ast.CommClause)
			collect(cc.Body, cc.Comm == nil)
		}
	}
	var exits []hsnap
	for _, b := range bodies {
		w.restore(pre)
		if !w.walkStmts(b) {
			exits = append(exits, w.snapshot())
		}
	}
	if !hasDefault {
		exits = append(exits, pre)
	}
	if len(exits) == 0 {
		w.restore(pre)
		return
	}
	joined := exits[0]
	for _, e := range exits[1:] {
		if e.st == hEscaped || joined.st == hEscaped {
			joined.st = hEscaped
		} else if e.st == hLive || joined.st == hLive {
			joined.st = hLive
		}
		joined.deferred = joined.deferred && e.deferred
	}
	w.restore(joined)
}

func (w *handleWalker) report(pos token.Pos, how string) {
	w.reported = true
	w.pass.Reportf(pos, "function %s without releasing %s acquired at %s (want %s)",
		how, w.acq.spec.what, w.pass.Fset.Position(w.acq.pos), nameList(w.acq.spec.releaseNames))
}

// isReleaseCall reports whether call is `<handle>.<Release>()`.
func (w *handleWalker) isReleaseCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !w.acq.spec.releaseNames[sel.Sel.Name] {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && w.pass.TypesInfo.Uses[id] == w.acq.obj
}

// deferredLitReleases reports whether call is an immediately-invoked
// func literal (as in `defer func() { ...; h.Close() }()`) whose body
// releases the handle.
func (w *handleWalker) deferredLitReleases(call *ast.CallExpr) bool {
	lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	releases := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && w.isReleaseCall(c) {
			releases = true
			return false
		}
		return true
	})
	return releases
}

// usesHandle reports whether expr mentions the handle in a way that
// transfers ownership: passed as an argument, placed in a composite
// literal, aliased, returned, captured. NOT counted: release calls,
// nil comparisons, and the receiver position of any method call on the
// handle (h.Work() is use, not transfer).
func (w *handleWalker) usesHandle(e ast.Expr) bool { return w.usesHandleNode(e) }

func (w *handleWalker) usesHandleNode(root ast.Node) bool {
	used := false
	receiverIdents := map[*ast.Ident]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		if used {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if w.isReleaseCall(x) {
				return false // the release itself is not an escape
			}
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok &&
					w.pass.TypesInfo.Uses[id] == w.acq.obj {
					receiverIdents[id] = true
				}
			}
		case *ast.BinaryExpr:
			if isNilCompare(w.pass.TypesInfo, x, w.acq.obj) {
				return false
			}
		case *ast.Ident:
			if w.pass.TypesInfo.Uses[x] == w.acq.obj && !receiverIdents[x] {
				used = true
				return false
			}
		}
		return true
	})
	return used
}

// usesHandleNonCompare is usesHandle for condition expressions, where
// nil comparisons are expected and benign.
func (w *handleWalker) usesHandleNonCompare(e ast.Expr) bool {
	return w.usesHandleNode(e)
}

func isNilCompare(info *types.Info, b *ast.BinaryExpr, obj types.Object) bool {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return false
	}
	isObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.Uses[id] == obj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isObj(b.X) && isNil(b.Y)) || (isNil(b.X) && isObj(b.Y))
}

func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

func nameList(m map[string]bool) string {
	out := ""
	for _, n := range []string{"Release", "Close", "Commit"} {
		if m[n] {
			if out != "" {
				out += "/"
			}
			out += n
		}
	}
	return out
}
