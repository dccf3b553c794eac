package lint

import (
	"go/ast"
	"go/types"

	"hpbd/internal/lint/analysis"
)

// Simblock flags real concurrency primitives inside simulated processes.
// A function that receives a *sim.Proc runs under the cooperative kernel,
// which lets exactly one process execute at a time while the others stay
// parked until it yields. A raw channel operation, select or
// sync.Mutex/WaitGroup call inside such a function blocks the running
// process, so nothing else ever runs and the simulation deadlocks; a
// spawned goroutine runs beside it and races it. Blocking must go through
// sim primitives (Proc.Sleep, sim.WaitQueue, sim.Chan, Env.Go). The sim
// package itself switches with coroutines and is checked like any other.
var Simblock = &analysis.Analyzer{
	Name: "simblock",
	Doc: "flag raw channel ops, select, go statements and sync.* calls in " +
		"functions that receive a *sim.Proc; use sim primitives instead",
	Run: runSimblock,
}

const simPkgPath = "hpbd/internal/sim"

func runSimblock(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftype, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ftype, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || !hasProcParam(pass, ftype) {
				return true
			}
			checkProcBody(pass, body)
			return true // still descend: nested lits get their own check
		})
	}
	return nil, nil
}

// hasProcParam reports whether the function signature includes a *sim.Proc
// parameter.
func hasProcParam(pass *analysis.Pass, ftype *ast.FuncType) bool {
	if ftype.Params == nil {
		return false
	}
	for _, field := range ftype.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if isSimProcPtr(t) {
			return true
		}
	}
	return false
}

func isSimProcPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Proc" && obj.Pkg() != nil && obj.Pkg().Path() == simPkgPath
}

func checkProcBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A nested literal with its own *sim.Proc parameter is checked
			// independently; don't report its body twice.
			return !hasProcParam(pass, n.Type)
		case *ast.SendStmt:
			pass.Reportf(n.Arrow, "raw channel send in a *sim.Proc function blocks the cooperative scheduler; use sim.Chan or sim.WaitQueue")
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				pass.Reportf(n.OpPos, "raw channel receive in a *sim.Proc function blocks the cooperative scheduler; use sim.Chan or sim.WaitQueue")
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Select, "select in a *sim.Proc function blocks the cooperative scheduler; use sim primitives")
		case *ast.GoStmt:
			pass.Reportf(n.Go, "go statement in a *sim.Proc function spawns a real goroutine outside the virtual scheduler; use Env.Go")
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.For, "range over a real channel in a *sim.Proc function blocks the cooperative scheduler; use sim.Chan")
				}
			}
		case *ast.CallExpr:
			if name := syncMethodName(pass, n); name != "" {
				pass.Reportf(n.Pos(), "%s in a *sim.Proc function blocks the real thread all simulated processes share; use sim.WaitQueue/sim.Chan", name)
			}
		}
		return true
	})
}

// syncMethodName returns "sync.Mutex.Lock"-style names for calls to
// methods on package sync types, or "".
func syncMethodName(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return ""
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	return "sync." + obj.Name() + "." + sel.Sel.Name
}
