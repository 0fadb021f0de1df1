package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AckOrder enforces the ack ⇒ persisted invariant in the server and the
// store's flat combiner: no response write or combiner slot done-flip
// may be reachable while the current batch of store effects is still
// uncommitted (i.e. before the corresponding Deferred.Flush / session
// Commit has run on that path).
//
// This is the ordering the combiner protocol pins dynamically
// (execSlot → flushDeltas → Deferred.Flush → slotDone) and the drain
// under-answering fix of PR 8 restored in the server; the analyzer
// makes the ordering a review-time error.
//
// Analysis is path-sensitive within a function, with one-level callee
// summaries so that a helper that commits (or a method like
// Batcher.Exec that applies effects and commits internally) is
// accounted for at its call site.
//
// A session's mode is a run-time value, so every session is held to the
// mode-agnostic contract, effects then Commit: for the server's Combined
// session Commit is a no-op, and the combiner's done-flips are the check.
var AckOrder = &Analyzer{
	Name: "ackorder",
	Doc: "in internal/server and the store combiner, flags response writes and " +
		"slot done-flips reachable before the corresponding Deferred.Flush/Commit " +
		"(the ack ⇒ persisted invariant)",
	Run: runAckOrder,
}

// ackScopePkgs are the packages where the invariant applies.
var ackScopePkgs = []string{"internal/server", "internal/store"}

// effectMethodNames are store-op methods that enqueue durable effects.
var effectMethodNames = map[string]bool{
	"Get": false, "Contains": false, // reads carry no commit obligation
	"Put": true, "Delete": true, "Add": true, "Insert": true,
	"Apply": true, "ApplyHashed": true, "Exec": true, "Remove": true,
}

// commitMethodNames mark the batch as persisted.
var commitMethodNames = map[string]bool{
	"Commit": true, "Flush": true, "Drain": true, "PFence": true,
}

// ackEvent classifies what a statement does to the batch state.
type ackEvent int

const (
	evNone ackEvent = iota
	evEffect
	evCommit
	evAck
)

// ackSummary is the one-level summary of a callee: whether it can leave
// a new uncommitted effect at exit, whether it commits, and whether it
// contains an ack site (so calling it while dirty is itself a
// violation).
type ackSummary struct {
	dirtyAtExit bool
	commits     bool
	hasAck      bool
}

type ackAnalysis struct {
	pass      *Pass
	summaries map[types.Object]*ackSummary
	inFlight  map[types.Object]bool
	funcLits  map[types.Object]*ast.FuncLit // closure vars -> literal
	report    bool
}

func runAckOrder(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	inScope := false
	for _, p := range ackScopePkgs {
		if pathHasSuffix(pass.Pkg.Path(), p) {
			inScope = true
		}
	}
	if !inScope {
		return nil
	}
	a := &ackAnalysis{
		pass:      pass,
		summaries: map[types.Object]*ackSummary{},
		inFlight:  map[types.Object]bool{},
		funcLits:  map[types.Object]*ast.FuncLit{},
	}
	// Index closure assignments (x := func(){...}) so calls through the
	// variable can use a summary of the literal.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				lit, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj != nil {
					a.funcLits[obj] = lit
				}
			}
			return true
		})
	}
	a.report = true
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.evalStmts(fd.Body.List, false)
			// Closures get their own entry-clean evaluation.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					a.evalStmts(lit.Body.List, false)
					return false
				}
				return true
			})
		}
	}
	return nil
}

// branchResult reports how a statement list transformed the batch
// state along its fall-through path.
type branchResult struct {
	terminated bool
	// localEffect: the branch itself left a new uncommitted effect.
	localEffect bool
	// localCommit: the branch committed (and no effect followed).
	localCommit bool
	// dirtyReturn: some return inside the list left an uncommitted
	// effect — a callee exit its caller inherits even when every such
	// path returns (a switch whose cases each return an op's result).
	dirtyReturn bool
}

// evalStmts walks list with entry dirtiness `dirty`, reporting ack
// violations as it goes, and returns the branch result.
func (a *ackAnalysis) evalStmts(list []ast.Stmt, dirty bool) branchResult {
	res := branchResult{}
	cur := dirty
	apply := func(ev ackEvent, n ast.Node, what string) {
		switch ev {
		case evEffect:
			cur = true
			res.localEffect = true
			res.localCommit = false
		case evCommit:
			cur = false
			res.localCommit = true
			res.localEffect = false
		case evAck:
			if cur && a.report {
				a.pass.Reportf(n.Pos(),
					"%s is reachable before the pending batch is committed; call Deferred.Flush/Commit first (ack ⇒ persisted)", what)
			}
		}
	}
	// eval evaluates a nested list, carrying its dirty returns out.
	eval := func(list []ast.Stmt, dirty bool) branchResult {
		r := a.evalStmts(list, dirty)
		res.dirtyReturn = res.dirtyReturn || r.dirtyReturn
		return r
	}
	for _, s := range list {
		switch st := s.(type) {
		case *ast.ReturnStmt:
			a.scanExprEvents(st, apply)
			res.terminated = true
			if cur {
				res.localEffect = res.localEffect || cur
				res.dirtyReturn = true
			}
			return res
		case *ast.BranchStmt:
			res.terminated = true
			return res
		case *ast.IfStmt:
			if st.Init != nil {
				a.scanExprEvents(st.Init, apply)
			}
			a.scanExprEvents(st.Cond, apply)
			thenR := eval(st.Body.List, cur)
			var elseR branchResult
			hasElse := st.Else != nil
			if hasElse {
				if blk, ok := st.Else.(*ast.BlockStmt); ok {
					elseR = eval(blk.List, cur)
				} else {
					elseR = eval([]ast.Stmt{st.Else}, cur)
				}
			}
			cur = joinBranchState(cur, []branchResult{thenR, elseR}, hasElse)
			if thenR.localEffect && !thenR.terminated {
				res.localEffect = true
			}
			if hasElse && elseR.localEffect && !elseR.terminated {
				res.localEffect = true
			}
			if !cur {
				if (thenR.localCommit && !thenR.terminated) || (hasElse && elseR.localCommit && !elseR.terminated) {
					res.localCommit = true
					res.localEffect = false
				}
			}
			if thenR.terminated && hasElse && elseR.terminated {
				res.terminated = true
				return res
			}
		case *ast.ForStmt:
			if st.Init != nil {
				a.scanExprEvents(st.Init, apply)
			}
			bodyR := eval(st.Body.List, cur)
			cur = joinBranchState(cur, []branchResult{bodyR}, false)
			if bodyR.localEffect {
				res.localEffect = true
			}
		case *ast.RangeStmt:
			bodyR := eval(st.Body.List, cur)
			cur = joinBranchState(cur, []branchResult{bodyR}, false)
			if bodyR.localEffect {
				res.localEffect = true
			}
		case *ast.BlockStmt:
			r := eval(st.List, cur)
			cur = joinBranchState(cur, []branchResult{r}, true)
			res.localEffect = res.localEffect || r.localEffect
			res.localCommit = (res.localCommit || r.localCommit) && !cur
			if r.terminated {
				res.terminated = true
				return res
			}
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			var results []branchResult
			hasDefault := false
			forEachClause(st, func(body []ast.Stmt, isDefault bool) {
				results = append(results, eval(body, cur))
				hasDefault = hasDefault || isDefault
			})
			cur = joinBranchState(cur, results, hasDefault)
			for _, r := range results {
				if r.localEffect && !r.terminated {
					res.localEffect = true
				}
			}
		case *ast.LabeledStmt:
			r := eval([]ast.Stmt{st.Stmt}, cur)
			cur = joinBranchState(cur, []branchResult{r}, true)
			res.localEffect = res.localEffect || r.localEffect
			if r.terminated {
				res.terminated = true
				return res
			}
		case *ast.DeferStmt, *ast.GoStmt:
			// Deferred/concurrent work runs outside this path's ordering;
			// skip (the closure body is checked independently).
		default:
			a.scanExprEvents(s, apply)
		}
	}
	return res
}

// joinBranchState implements the asymmetric join: a branch that itself
// added an uncommitted effect dirties the merge; otherwise a branch
// that committed cleans it; otherwise the entry state carries through.
// The asymmetry avoids false positives on the idiomatic
// "if work { commit() }" conditional-commit shape, where the condition
// is correlated with whether effects exist.
func joinBranchState(entry bool, results []branchResult, covered bool) bool {
	for _, r := range results {
		if r.terminated {
			continue
		}
		if r.localEffect {
			return true
		}
	}
	for _, r := range results {
		if r.terminated {
			continue
		}
		if r.localCommit {
			return false
		}
	}
	return entry
}

// scanExprEvents walks a non-branching statement in source order and
// feeds effect/commit/ack events to apply.
func (a *ackAnalysis) scanExprEvents(root ast.Node, apply func(ackEvent, ast.Node, string)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		ev, what := a.classifyCall(call)
		if ev != evNone {
			apply(ev, call, what)
		}
		return true
	})
}

// classifyCall maps a call to its ack event.
func (a *ackAnalysis) classifyCall(call *ast.CallExpr) (ackEvent, string) {
	info := a.pass.TypesInfo

	// Ack site 1: combiner slot done-flip — a Store on an atomic value
	// reached via a selector whose field name mentions "state" with an
	// argument identifier containing "Done".
	if recv, name, ok := methodCall(info, call); ok && name == "Store" {
		if n := namedOf(recv); n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic" {
			for _, arg := range call.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && strings.Contains(id.Name, "Done") {
					return evAck, "slot done-flip (" + id.Name + ")"
				}
			}
		}
	}

	// Ack site 2: response writes — calls to functions/methods whose
	// name marks them as emitting replies to the client.
	if fn := calleeFunc(info, call); fn != nil {
		name := fn.Name()
		if isAckName(name) && pathInAckScope(pkgPathOf(fn)) {
			return evAck, "response write (" + name + ")"
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		// Calls through local closures: writeResps-style ack helpers, or
		// summarized effect/commit helpers.
		if obj := info.Uses[id]; obj != nil {
			if isAckName(id.Name) {
				return evAck, "response write (" + id.Name + ")"
			}
			if lit, ok := a.funcLits[obj]; ok {
				sum := a.summarizeLit(obj, lit)
				if sum.hasAck {
					return evAck, "call to " + id.Name + " (writes responses)"
				}
				if sum.dirtyAtExit {
					return evEffect, id.Name
				}
				if sum.commits {
					return evCommit, id.Name
				}
			}
		}
	}

	// Effects and commits on store/core/pmem types.
	if recv, name, ok := methodCall(info, call); ok {
		if commitMethodNames[name] && isBatchCarrier(recv) {
			return evCommit, name
		}
		if doesEffect, listed := effectMethodNames[name]; listed && doesEffect && isBatchCarrier(recv) {
			// Same-package method calls with bodies get a summary so a
			// method that commits internally (Batcher.Exec) registers as
			// committing at the call site. The name-based classification
			// stands otherwise: a listed effect method is an effect even
			// when its body is opaque to this analysis.
			if fn := calleeFunc(info, call); fn != nil {
				if sum := a.summarizeFunc(fn); sum != nil && sum.commits && !sum.dirtyAtExit {
					return evCommit, name
				}
			}
			return evEffect, name
		}
	}
	// Package-local plain function calls: use summaries.
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() == a.pass.Pkg {
		if sum := a.summarizeFunc(fn); sum != nil {
			if sum.dirtyAtExit {
				return evEffect, fn.Name()
			}
			if sum.commits {
				return evCommit, fn.Name()
			}
		}
	}
	return evNone, ""
}

// isBatchCarrier reports whether t is a type that carries deferred
// durable effects: store/session/batcher types, core.Deferred, or
// pmem.Thread.
func isBatchCarrier(t types.Type) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	p := n.Obj().Pkg().Path()
	return pathHasSuffix(p, "internal/store") ||
		pathHasSuffix(p, "internal/core") ||
		pathHasSuffix(p, "internal/pmem") ||
		pathHasSuffix(p, "internal/server") ||
		pathHasSuffix(p, "internal/dstruct/hashtable")
}

func isAckName(name string) bool {
	switch name {
	case "writeResps", "writeResp", "writeResponse", "writeResponses", "sendResp", "sendReply", "ack":
		return true
	}
	return false
}

func pathInAckScope(p string) bool {
	for _, s := range ackScopePkgs {
		if pathHasSuffix(p, s) {
			return true
		}
	}
	return false
}

// summarizeFunc computes (memoized, cycle-safe) the ack summary of a
// same-package function from its body; nil when the body is unknown.
func (a *ackAnalysis) summarizeFunc(fn *types.Func) *ackSummary {
	if fn.Pkg() != a.pass.Pkg {
		return nil
	}
	if s, ok := a.summaries[fn]; ok {
		return s
	}
	if a.inFlight[fn] {
		return &ackSummary{}
	}
	body := a.findBody(fn)
	if body == nil {
		return nil
	}
	a.inFlight[fn] = true
	s := a.summarizeBody(body)
	delete(a.inFlight, fn)
	a.summaries[fn] = s
	return s
}

func (a *ackAnalysis) summarizeLit(obj types.Object, lit *ast.FuncLit) *ackSummary {
	if s, ok := a.summaries[obj]; ok {
		return s
	}
	if a.inFlight[obj] {
		return &ackSummary{}
	}
	a.inFlight[obj] = true
	s := a.summarizeBody(lit.Body)
	delete(a.inFlight, obj)
	a.summaries[obj] = s
	return s
}

// summarizeBody evaluates a body with entry state clean and reporting
// off, recording whether any exit is dirty, whether it commits, and
// whether it contains an ack site.
func (a *ackAnalysis) summarizeBody(body *ast.BlockStmt) *ackSummary {
	saved := a.report
	a.report = false
	r := a.evalStmts(body.List, false)
	a.report = saved
	s := &ackSummary{
		dirtyAtExit: r.localEffect || r.dirtyReturn,
		commits:     r.localCommit,
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if ev, _ := a.classifyCallShallow(call); ev == evAck {
			s.hasAck = true
		}
		return true
	})
	return s
}

// classifyCallShallow is classifyCall without summary recursion (used
// only for hasAck detection inside summaries).
func (a *ackAnalysis) classifyCallShallow(call *ast.CallExpr) (ackEvent, string) {
	info := a.pass.TypesInfo
	if recv, name, ok := methodCall(info, call); ok && name == "Store" {
		if n := namedOf(recv); n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic" {
			for _, arg := range call.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && strings.Contains(id.Name, "Done") {
					return evAck, ""
				}
			}
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && isAckName(id.Name) {
		return evAck, ""
	}
	if fn := calleeFunc(info, call); fn != nil && isAckName(fn.Name()) {
		return evAck, ""
	}
	return evNone, ""
}

// findBody locates the declaration body of fn in this package's files.
func (a *ackAnalysis) findBody(fn *types.Func) *ast.BlockStmt {
	for _, f := range a.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if a.pass.TypesInfo.Defs[fd.Name] == fn {
				return fd.Body
			}
		}
	}
	return nil
}

// forEachClause iterates switch/select clause bodies.
func forEachClause(s ast.Stmt, f func(body []ast.Stmt, isDefault bool)) {
	switch sw := s.(type) {
	case *ast.SwitchStmt:
		for _, c := range sw.Body.List {
			cc := c.(*ast.CaseClause)
			f(cc.Body, cc.List == nil)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range sw.Body.List {
			cc := c.(*ast.CaseClause)
			f(cc.Body, cc.List == nil)
		}
	case *ast.SelectStmt:
		for _, c := range sw.Body.List {
			cc := c.(*ast.CommClause)
			f(cc.Body, cc.Comm == nil)
		}
	}
}
