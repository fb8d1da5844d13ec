package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"csrgraph/lint/internal/analysis"
)

// AtomicField enforces access consistency for fields and package-level
// variables touched through sync/atomic's function API: once any site in
// the package does atomic.AddInt64(&s.f, ...) (Load/Store/Swap/
// CompareAndSwap/And/Or likewise), every other access to that field must
// also go through sync/atomic — a plain read concurrent with an atomic
// write is a data race the race detector only catches when both sides
// execute. Fields of the atomic.Int64-style wrapper types are safe by
// construction and not this analyzer's concern (their raw words are
// unreachable). In-package test files are analyzed too: "the test only
// reads it after the barrier" is exactly the assumption this check exists
// to make explicit with an atomic load.
var AtomicField = &analysis.Analyzer{
	Name: "atomicfield",
	Doc:  "forbid plain reads/writes of fields that are accessed via sync/atomic elsewhere in the package",
	Run:  runAtomicField,
}

// atomicFuncs are the sync/atomic functions whose first pointer argument
// marks its target as atomically accessed.
var atomicFuncs = map[string]bool{
	"AddInt32": true, "AddInt64": true, "AddUint32": true, "AddUint64": true, "AddUintptr": true,
	"LoadInt32": true, "LoadInt64": true, "LoadUint32": true, "LoadUint64": true, "LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true, "StoreUint64": true, "StoreUintptr": true, "StorePointer": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true, "SwapUint64": true, "SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true, "CompareAndSwapUint32": true,
	"CompareAndSwapUint64": true, "CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
	"AndInt32": true, "AndInt64": true, "AndUint32": true, "AndUint64": true,
	"OrInt32": true, "OrInt64": true, "OrUint32": true, "OrUint64": true,
}

func runAtomicField(pass *analysis.Pass) (any, error) {
	info := pass.TypesInfo

	// Pass 1: objects whose address is taken by a sync/atomic call, and
	// the set of &x expressions that are those calls' arguments (so pass 2
	// can exempt them).
	atomicObjs := make(map[*types.Var]token.Pos)
	exempt := make(map[ast.Expr]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(info, call)
			if callee == nil || !atomicFuncs[callee.Name()] || !isAtomicPkg(callee) {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || addr.Op != token.AND {
				return true
			}
			target := ast.Unparen(addr.X)
			if v := addressedVar(info, target); v != nil {
				if _, seen := atomicObjs[v]; !seen {
					atomicObjs[v] = call.Pos()
				}
				exempt[target] = true
			}
			return true
		})
	}
	if len(atomicObjs) == 0 {
		return nil, nil
	}

	// Pass 2: any other use of those objects is a plain access.
	type finding struct {
		pos token.Pos
		v   *types.Var
	}
	var findings []finding
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if exempt[n] {
					return false
				}
				if sel, ok := info.Selections[n]; ok {
					if v, ok := sel.Obj().(*types.Var); ok {
						if _, tracked := atomicObjs[v]; tracked {
							findings = append(findings, finding{n.Sel.Pos(), v})
							return false
						}
					}
				}
			case *ast.Ident:
				if v, ok := info.Uses[n].(*types.Var); ok && !v.IsField() {
					if _, tracked := atomicObjs[v]; tracked && !exempt[n] {
						findings = append(findings, finding{n.Pos(), v})
					}
				}
			}
			return true
		})
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	for _, fd := range findings {
		kind := "variable"
		if fd.v.IsField() {
			kind = "field"
		}
		pass.Reportf(fd.pos, "plain access of %s %s, which is accessed via sync/atomic elsewhere in this package; use an atomic load/store", kind, fd.v.Name())
	}
	return nil, nil
}

// addressedVar resolves &target to the variable being addressed: a struct
// field for s.f (possibly through indexes), or a non-field variable for a
// plain identifier. Slice/array elements resolve to nothing — atomic
// writes to shared elements followed by plain reads after the barrier is
// an intended merge pattern.
func addressedVar(info *types.Info, target ast.Expr) *types.Var {
	switch t := ast.Unparen(target).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[t]; ok {
			if v, ok := sel.Obj().(*types.Var); ok && v.IsField() {
				return v
			}
		}
	case *ast.Ident:
		if v, ok := info.Uses[t].(*types.Var); ok && !v.IsField() {
			return v
		}
	}
	return nil
}

// isAtomicPkg reports whether fn belongs to sync/atomic.
func isAtomicPkg(fn *types.Func) bool {
	return fn.Pkg() != nil && (fn.Pkg().Path() == "sync/atomic" || strings.HasSuffix(fn.Pkg().Path(), "/sync/atomic"))
}
