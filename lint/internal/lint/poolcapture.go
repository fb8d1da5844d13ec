package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"csrgraph/lint/internal/analysis"
)

// PoolCapture checks the closures handed to the parallel-for substrate
// (parallel.For / ForEach / ForDynamic and the Pool methods of the same
// names) for the two data-race shapes the paper's chunked algorithms
// (Algorithms 1-3) make easy to write:
//
//   - Capturing the iteration variable of an enclosing for/range loop.
//     The body must derive everything from its own chunk/worker/index
//     arguments; reading an outer loop's counter couples the closure to
//     iteration state the scheduler does not preserve.
//   - Writing a captured variable directly (x = v, x += v, x++, map
//     writes, or writes through a captured pointer). Chunk results must
//     go through disjoint slice elements (results[i] = v), sync/atomic,
//     or a held sync.Mutex — the mu.Lock(); x += local; mu.Unlock()
//     reduction counts as synchronized; anything else is a data race
//     between chunks.
//
// Only closure literals passed directly at the call site are analyzed.
var PoolCapture = &analysis.Analyzer{
	Name: "poolcapture",
	Doc:  "forbid loop-variable capture and unsynchronized captured writes in parallel.For/ForEach/ForDynamic bodies",
	Run:  runPoolCapture,
}

const parallelPath = "csrgraph/internal/parallel"

var poolForFuncs = map[string]bool{"For": true, "ForEach": true, "ForDynamic": true}

func runPoolCapture(pass *analysis.Pass) (any, error) {
	pass.WalkStack(func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass.TypesInfo, call)
		if callee == nil || !poolForFuncs[callee.Name()] || !isPkgFunc(callee, parallelPath, callee.Name()) {
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		body, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
		if !ok {
			return true
		}
		checkPoolBody(pass, callee.Name(), body, enclosingLoopVars(pass.TypesInfo, stack))
		return true
	})
	return nil, nil
}

// enclosingLoopVars collects the iteration variables of every for/range
// statement on the stack, stopping at the function boundary nearest the
// call site.
func enclosingLoopVars(info *types.Info, stack []ast.Node) map[*types.Var]bool {
	vars := make(map[*types.Var]bool)
	addDef := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok {
			if v, ok := info.Defs[id].(*types.Var); ok {
				vars[v] = true
			}
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.ForStmt:
			if init, ok := s.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, lhs := range init.Lhs {
					addDef(lhs)
				}
			}
		case *ast.RangeStmt:
			if s.Tok == token.DEFINE {
				addDef(s.Key)
				addDef(s.Value)
			}
		case *ast.FuncDecl, *ast.FuncLit:
			return vars
		}
	}
	return vars
}

// checkPoolBody walks one closure body reporting loop-variable captures
// and unsynchronized writes to free variables.
func checkPoolBody(pass *analysis.Pass, fnName string, body *ast.FuncLit, loopVars map[*types.Var]bool) {
	info := pass.TypesInfo
	free := func(v *types.Var) bool {
		// A variable is captured if it is not declared inside the closure.
		return !(body.Pos() <= v.Pos() && v.Pos() <= body.End())
	}
	reportWrite := func(n ast.Node, what string) {
		pass.Reportf(n.Pos(), "closure passed to parallel.%s %s without synchronization; write through a disjoint slice element or use sync/atomic", fnName, what)
	}
	checkTarget := func(n ast.Node, target ast.Expr) {
		switch t := ast.Unparen(target).(type) {
		case *ast.Ident:
			if v, ok := info.Uses[t].(*types.Var); ok && free(v) && !v.IsField() {
				reportWrite(n, "writes captured variable "+v.Name())
			}
		case *ast.IndexExpr:
			if _, isMap := typeOf(info, t.X).Underlying().(*types.Map); !isMap {
				return // disjoint slice/array element writes are the intended pattern
			}
			if base := rootIdentVar(info, t.X); base != nil && free(base) {
				reportWrite(n, "writes a map entry of captured variable "+base.Name())
			}
		case *ast.StarExpr:
			if base := rootIdentVar(info, t.X); base != nil && free(base) {
				reportWrite(n, "writes through captured pointer "+base.Name())
			}
		case *ast.SelectorExpr:
			if base := rootIdentVar(info, t.X); base != nil && free(base) {
				if sel, ok := info.Selections[t]; ok {
					if v, ok := sel.Obj().(*types.Var); ok {
						reportWrite(n, "writes field "+v.Name()+" of captured variable "+base.Name())
					}
				}
			}
		}
	}
	analysis.WalkStack(body.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok && loopVars[v] {
				pass.Reportf(n.Pos(), "closure passed to parallel.%s captures loop variable %s of an enclosing loop; derive state from the closure's own arguments", fnName, v.Name())
			}
		case *ast.AssignStmt:
			if mutexGuarded(info, stack, n) {
				return true
			}
			for _, lhs := range n.Lhs {
				checkTarget(n, lhs)
			}
		case *ast.IncDecStmt:
			if mutexGuarded(info, stack, n) {
				return true
			}
			checkTarget(n, n.X)
		}
		return true
	})
}

// mutexGuarded reports whether the statement containing n executes while
// a sync.Mutex/RWMutex is held: some enclosing block contains, before the
// statement, a mu.Lock()/mu.RLock() call not yet matched by a non-deferred
// unlock. Scanning stops at the analyzed closure's boundary (the stack
// starts there).
func mutexGuarded(info *types.Info, stack []ast.Node, n ast.Node) bool {
	child := n
	for i := len(stack) - 1; i >= 0; i-- {
		block, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			child = stack[i]
			continue
		}
		idx := -1
		for j, s := range block.List {
			if s == child {
				idx = j
				break
			}
		}
	scan:
		for j := idx - 1; j >= 0; j-- {
			es, ok := block.List[j].(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			switch mutexMethodName(info, call) {
			case "Lock", "RLock":
				return true
			case "Unlock", "RUnlock":
				break scan // released before our statement; try outer blocks
			}
		}
		child = block
	}
	return false
}

// mutexMethodName returns the method name when call is a lock or unlock
// method call on a sync.Mutex or sync.RWMutex (possibly embedded), else "".
func mutexMethodName(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return fn.Name()
	}
	return ""
}

// rootIdentVar walks x[i].y style chains down to the base identifier's
// variable, or nil when the base is not a plain identifier.
func rootIdentVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := info.Uses[t].(*types.Var)
			return v
		case *ast.IndexExpr:
			e = t.X
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}
