package analysis

import (
	"go/ast"
	"go/types"
)

// HotPath checks functions annotated //flit:hotpath — the op loops,
// policy skeletons, write-back queue, and metrics record paths whose
// zero-allocation property PR 3 and PR 6 pinned with runtime
// allocs-per-op tests. The analyzer turns those pins into review-time
// errors by flagging the constructs that allocate or stall on these
// paths:
//
//   - time.Now / time.Since (vDSO call + defeats the cached-clock idiom)
//   - any fmt call (Sprintf/Errorf/Fprintf all allocate)
//   - function literals that capture variables (closure allocation)
//   - map iteration (randomized, allocation-prone, cache-hostile)
//   - defer (an exit hook on every return path, heap-allocated when it
//     sits in a loop; a hot function releases explicitly before each
//     return)
//   - implicit interface conversions of concrete values (boxing
//     allocation) in call arguments, assignments, and returns
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "for functions annotated //flit:hotpath, flags time.Now, fmt calls, " +
		"capturing closures, map iteration, defer, and interface-boxing conversions " +
		"(the zero-allocation hot-path discipline)",
	Run: runHotPath,
}

func runHotPath(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, hot := funcAnnotations(pass.Fset, f, fd)["hotpath"]; hot {
				checkHotBody(pass, fd)
			}
		}
	}
	return nil
}

func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(info, x); fn != nil {
				switch pkgPathOf(fn) {
				case "time":
					if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
						pass.Reportf(x.Pos(), "time.%s on a //flit:hotpath function; use the cached coarse clock or record outside the hot path", fn.Name())
					}
				case "fmt":
					pass.Reportf(x.Pos(), "fmt.%s allocates on a //flit:hotpath function", fn.Name())
				}
			}
			checkBoxingCall(pass, x)
		case *ast.FuncLit:
			if free := capturedVars(info, fd, x); len(free) > 0 {
				pass.Reportf(x.Pos(), "closure captures %s on a //flit:hotpath function (closure allocation)", free[0])
			}
			return false // don't double-report inside the literal
		case *ast.DeferStmt:
			pass.Reportf(x.Pos(), "defer on a //flit:hotpath function; release explicitly on every return path")
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(x.Pos(), "map iteration on a //flit:hotpath function")
				}
			}
		case *ast.ValueSpec:
			for i, v := range x.Values {
				if i < len(x.Names) {
					if obj := info.Defs[x.Names[i]]; obj != nil {
						checkBoxingInto(pass, v, obj.Type())
					}
				}
			}
		case *ast.AssignStmt:
			for i := range x.Lhs {
				if i < len(x.Rhs) && len(x.Lhs) == len(x.Rhs) {
					checkBoxingAssign(pass, x.Lhs[i], x.Rhs[i])
				}
			}
		case *ast.ReturnStmt:
			// Boxing in returns is checked against the signature.
			sig, _ := info.Defs[fd.Name].(*types.Func)
			if sig != nil {
				res := sig.Type().(*types.Signature).Results()
				if res.Len() == len(x.Results) {
					for i, r := range x.Results {
						checkBoxingInto(pass, r, res.At(i).Type())
					}
				}
			}
		}
		return true
	})
}

// checkBoxingCall flags call arguments whose concrete values convert
// implicitly to interface parameters (a boxing allocation).
func checkBoxingCall(pass *Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	if fn := calleeFunc(info, call); fn != nil && pkgPathOf(fn) == "fmt" {
		return // the fmt call itself is already reported
	}
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	// Skip conversions and builtins (len, append, ...).
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= sig.Params().Len()-1 {
			if call.Ellipsis.IsValid() {
				continue // slice passed whole; no per-element boxing
			}
			pt = sig.Params().At(sig.Params().Len() - 1).Type()
			if sl, ok := pt.(*types.Slice); ok {
				pt = sl.Elem()
			}
		} else if i < sig.Params().Len() {
			pt = sig.Params().At(i).Type()
		}
		if pt != nil {
			checkBoxingInto(pass, arg, pt)
		}
	}
}

func checkBoxingAssign(pass *Pass, lhs, rhs ast.Expr) {
	info := pass.TypesInfo
	lt, ok := info.Types[lhs]
	if !ok {
		return
	}
	checkBoxingInto(pass, rhs, lt.Type)
}

// checkBoxingInto reports expr when it is a concrete (non-interface,
// non-nil, non-constant, not pointer-shaped) value converted implicitly to
// an interface-typed destination.
func checkBoxingInto(pass *Pass, expr ast.Expr, dst types.Type) {
	if dst == nil {
		return
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return
	}
	info := pass.TypesInfo
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() {
		return
	}
	if _, srcIface := tv.Type.Underlying().(*types.Interface); srcIface {
		return // interface-to-interface: no box
	}
	switch tv.Type.Underlying().(type) {
	case *types.Signature:
		return // func values into error-ish interfaces are rare; skip
	case *types.Pointer, *types.Map, *types.Chan:
		return // pointer-shaped: stored in the interface word itself, no box
	}
	if tv.Value != nil {
		return // constant: the compiler boxes it once, in read-only data
	}
	pass.Reportf(expr.Pos(), "%s value converts to interface here (boxing allocation) on a //flit:hotpath function", tv.Type.String())
}

// capturedVars returns the names of variables the literal captures from
// the enclosing function (free variables declared outside the literal
// but inside the function).
func capturedVars(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) []string {
	var out []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || seen[v] || v.Pos() == 0 {
			return true
		}
		// Captured iff declared inside the enclosing function but
		// outside the literal.
		if v.Pos() >= fd.Pos() && v.Pos() <= fd.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() <= lit.End()) {
			seen[v] = true
			out = append(out, v.Name())
		}
		return true
	})
	return out
}
