package lint

// Shared infrastructure for the flow-sensitive protocol analyzers
// (handleonce, lockorder, hotalloc): a per-package
// function index with memoized CFGs, static call resolution inside the
// package, and the access-path identity the analyzers use to decide
// that two expressions name the same resource.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hpbd/internal/lint/analysis"
	"hpbd/internal/lint/analysis/cfg"
)

// funcIndex indexes one package's function declarations so analyzers can
// resolve calls to same-package functions and build effect summaries.
type funcIndex struct {
	fset  *token.FileSet
	info  *types.Info
	decls map[*types.Func]*ast.FuncDecl
	cfgs  map[*ast.FuncDecl]*cfg.CFG
}

func newFuncIndex(pass *analysis.Pass) *funcIndex {
	fi := &funcIndex{
		fset:  pass.Fset,
		info:  pass.TypesInfo,
		decls: map[*types.Func]*ast.FuncDecl{},
		cfgs:  map[*ast.FuncDecl]*cfg.CFG{},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				fi.decls[fn] = fd
			}
		}
	}
	return fi
}

func (fi *funcIndex) cfgOf(fd *ast.FuncDecl) *cfg.CFG {
	g := fi.cfgs[fd]
	if g == nil {
		g = cfg.New(fd.Body)
		fi.cfgs[fd] = g
	}
	return g
}

// staticCallee resolves a call to a function declared (with a body) in
// this package. Calls through function-typed values, to other packages,
// and to builtins resolve to nil.
func (fi *funcIndex) staticCallee(call *ast.CallExpr) (*types.Func, *ast.FuncDecl) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, nil
	}
	fn, ok := fi.info.Uses[id].(*types.Func)
	if !ok {
		return nil, nil
	}
	fd := fi.decls[fn]
	if fd == nil {
		return nil, nil
	}
	return fn, fd
}

// resourceID resolves the stable identity an expression names: for a
// selector chain (ph.link.credits) the final field's *types.Var — so
// every path to the same field is one resource, whichever local it goes
// through — and for a plain identifier its object. Expressions with no
// static identity (calls, index expressions) resolve to nil.
func resourceID(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		return info.ObjectOf(e.Sel)
	}
	return nil
}

// baseIdent returns the identifier at the base of a selector chain
// (ph.parent.req -> ph), or the identifier itself, or nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// pathIs reports whether a package import path is exactly suffix or ends
// in "/"+suffix — how the analyzers name core packages (e.g.
// "internal/sim") without hard-coding the module prefix.
func pathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// methodOn matches call as a method call on a value of the named type
// declared in a package matching pkgSuffix, returning the receiver
// expression and method name.
func methodOn(info *types.Info, call *ast.CallExpr, pkgSuffix, typeName string) (recv ast.Expr, method string, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return nil, "", false
	}
	fn, okFn := info.Uses[sel.Sel].(*types.Func)
	if !okFn {
		return nil, "", false
	}
	sig, okSig := fn.Type().(*types.Signature)
	if !okSig || sig.Recv() == nil {
		return nil, "", false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, okN := t.(*types.Named)
	if !okN || named.Obj().Name() != typeName {
		return nil, "", false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || !pathIs(pkg.Path(), pkgSuffix) {
		return nil, "", false
	}
	return sel.X, fn.Name(), true
}

// inspectLeaf walks n like ast.Inspect but does not descend into
// function literals: the *ast.FuncLit node itself is visited (so a
// caller can model capture semantics) and its body is pruned, keeping a
// block's events limited to code that actually executes in the block.
func inspectLeaf(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			return true
		}
		if !f(x) {
			return false
		}
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false
		}
		return true
	})
}

// exitPos returns the position a leak at an exit block should be
// reported at: the trailing return statement, or the closing brace of
// the function body when control falls off the end.
func exitPos(b *cfg.Block, body *ast.BlockStmt) token.Pos {
	if r := b.Return(); r != nil {
		return r.Pos()
	}
	if len(b.Nodes) > 0 {
		return b.Nodes[len(b.Nodes)-1].End()
	}
	return body.Rbrace
}

// funcDocHas reports whether a function's doc comment contains a line
// beginning with the given marker (e.g. "//hpbd:hotpath").
func funcDocHas(fd *ast.FuncDecl, marker string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, marker) {
			return true
		}
	}
	return false
}
