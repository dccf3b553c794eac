package lint

// The handleonce analyzer: a request handle removed from an in-flight
// tracking map must be settled on exactly one path — completed, requeued
// or handed off — never dropped, never settled twice. This is the
// invariant behind a pending map: every delete(d.pending, h) is followed
// by exactly one of completion / requeue / re-insertion under a fresh
// handle (the failover and migration requeue discipline), and a path that
// forgets loses the request while a path that settles twice completes it
// twice. (The HPBD client keeps no such map: its in-flight list and slot
// table are intrusive, so ownership moves without a delete this analyzer
// could see, and the client's tests check it — a second settle there finds
// a zeroed record, a nil parent at run time, and the free-list and slot
// checks of TestRequestRecordLifetimes.)
//
// Tracked maps are discovered per package: any map identity (field or
// local) with a pointer-to-named-struct element that sees BOTH an index
// assignment and a delete somewhere in the package. For each function a
// forward dataflow tracks local variables over the lattice
//
//	bound     looked up from a tracked map (the map still owns it)
//	detached  the entry was deleted; this variable owes a settlement
//	settled   exactly one settlement happened
//
// joined pointwise with detached > bound > settled. delete(m, k) moves
// every variable bound to m to detached, and — because the idiom
// `delete(d.pending, ph.handle)` detaches a handle reached through a
// struct, not a prior lookup — also detaches a variable x when the key
// is x.field and x has the map's element type. Settlements are:
//
//   - a call to a method named Complete or Trigger whose receiver chain
//     is rooted at the variable (ph.parent.req.Complete(err) settles
//     ph, ev.Trigger() settles a parked waiter's event; an unrelated
//     tracer.Complete does not);
//   - re-insertion into a tracked map (the map owns it again; tracking
//     stops so the follow-up sendQ.TrySend is not a second settlement);
//   - sending the variable into a channel or a Send/TrySend method;
//   - a call to a same-package function whose (transitive, memoized)
//     summary may settle that parameter.
//
// Returning the variable, storing it into a field/slice, or capturing
// it in a non-settling function literal transfers ownership out of the
// function and ends tracking without a report. Passing it to a callee
// the package cannot see (function-typed values, other packages) is a
// deliberate no-op. A variable still detached at a reachable return is
// reported at the return with the delete site as a related position, so
// //hpbd:allow works on either line; a second settlement is reported at
// the settling call.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"hpbd/internal/lint/analysis"
	"hpbd/internal/lint/analysis/cfg"
	"hpbd/internal/lint/analysis/dataflow"
)

// Handleonce reports in-flight handles dropped or settled twice.
var Handleonce = &analysis.Analyzer{
	Name: "handleonce",
	Doc:  "a handle removed from an in-flight map is settled exactly once",
	Run:  runHandleonce,
}

const (
	hSettled uint8 = iota + 1
	hBound
	hDetached
)

// handleVar is one tracked variable's state: the lattice point, the map
// it came from, the identity of the lookup key (so a delete under a
// different key does not detach it), and the position that put it in
// this state (the lookup, the delete, or the first settlement).
type handleVar struct {
	st  uint8
	m   types.Object
	key types.Object // lookup key identity; nil when not a simple path
	pos token.Pos
}

type handleState map[types.Object]handleVar

func (s handleState) clone() handleState {
	n := make(handleState, len(s))
	for k, v := range s {
		n[k] = v
	}
	return n
}

func handleJoin(a, b handleState) handleState {
	n := a.clone()
	for k, v := range b {
		if old, ok := n[k]; !ok || v.st > old.st {
			n[k] = v
		}
	}
	return n
}

func handleEqual(a, b handleState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func runHandleonce(pass *analysis.Pass) (interface{}, error) {
	fi := newFuncIndex(pass)
	h := &handleonce{fi: fi, pass: pass, summaries: map[*ast.FuncDecl]int{}, inProgress: map[*ast.FuncDecl]bool{}}
	h.findTrackedMaps(pass.Files)
	if len(h.tracked) == 0 {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				h.checkFunc(fd)
			}
		}
	}
	h.emit()
	return nil, nil
}

type handleonce struct {
	fi      *funcIndex
	pass    *analysis.Pass
	tracked map[types.Object]bool // map identities with insert+delete

	summaries  map[*ast.FuncDecl]int // param-index bitmask that may settle
	inProgress map[*ast.FuncDecl]bool

	diags []analysis.Diagnostic
	seen  map[string]bool
}

func (h *handleonce) report(d analysis.Diagnostic) {
	if h.seen == nil {
		h.seen = map[string]bool{}
	}
	key := fmt.Sprintf("%d:%s", d.Pos, d.Message)
	if h.seen[key] {
		return
	}
	h.seen[key] = true
	h.diags = append(h.diags, d)
}

func (h *handleonce) emit() {
	sort.Slice(h.diags, func(i, j int) bool {
		if h.diags[i].Pos != h.diags[j].Pos {
			return h.diags[i].Pos < h.diags[j].Pos
		}
		return h.diags[i].Message < h.diags[j].Message
	})
	for _, d := range h.diags {
		h.pass.Report(d)
	}
}

// elemStruct returns the named struct behind a map's
// pointer-to-named-struct element type, or nil.
func elemStruct(mapType types.Type) *types.Named {
	m, ok := mapType.Underlying().(*types.Map)
	if !ok {
		return nil
	}
	p, ok := m.Elem().Underlying().(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return nil
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return nil
	}
	return named
}

// findTrackedMaps marks every map identity the package both inserts
// into and deletes from, with a pointer-to-named-struct element.
func (h *handleonce) findTrackedMaps(files []*ast.File) {
	inserted := map[types.Object]bool{}
	deleted := map[types.Object]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
						if obj := resourceID(h.fi.info, idx.X); obj != nil && elemStruct(obj.Type()) != nil {
							inserted[obj] = true
						}
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
					if _, isBuiltin := h.fi.info.Uses[id].(*types.Builtin); isBuiltin {
						if obj := resourceID(h.fi.info, n.Args[0]); obj != nil && elemStruct(obj.Type()) != nil {
							deleted[obj] = true
						}
					}
				}
			}
			return true
		})
	}
	h.tracked = map[types.Object]bool{}
	for obj := range inserted {
		if deleted[obj] {
			h.tracked[obj] = true
		}
	}
}

func (h *handleonce) checkFunc(fd *ast.FuncDecl) {
	g := h.fi.cfgOf(fd)
	flow := dataflow.Flow[handleState]{
		Entry: handleState{},
		Transfer: func(b *cfg.Block, in handleState) handleState {
			out := in.clone()
			for _, n := range b.Nodes {
				h.transferNode(n, out)
			}
			return out
		},
		Join:  handleJoin,
		Equal: handleEqual,
	}
	res := dataflow.Forward(g, flow)
	for _, b := range g.Blocks {
		if len(b.Succs) != 0 || b.Panics {
			continue
		}
		out, reached := res.Out[b]
		if !reached {
			continue
		}
		pos := exitPos(b, fd.Body)
		for v, hv := range out {
			if hv.st != hDetached {
				continue
			}
			h.report(analysis.Diagnostic{
				Pos: pos,
				Message: fmt.Sprintf("handle %q removed from %q at line %d may reach this return without being completed, requeued or handed off",
					v.Name(), hv.m.Name(), h.fi.fset.Position(hv.pos).Line),
				Related: []token.Pos{hv.pos},
			})
		}
	}
}

// settle applies one settlement of v at pos, reporting a double settle.
func (h *handleonce) settle(out handleState, v types.Object, pos token.Pos) {
	hv, ok := out[v]
	if !ok {
		return
	}
	switch hv.st {
	case hDetached:
		out[v] = handleVar{st: hSettled, m: hv.m, key: hv.key, pos: pos}
	case hSettled:
		h.report(analysis.Diagnostic{
			Pos: pos,
			Message: fmt.Sprintf("handle %q already settled at line %d is settled again here",
				v.Name(), h.fi.fset.Position(hv.pos).Line),
			Related: []token.Pos{hv.pos},
		})
	case hBound:
		// Settling while the map still owns it is outside this protocol;
		// stop tracking rather than guess.
		delete(out, v)
	}
}

// localObj resolves an identifier to its (non-field) object. Blank
// identifiers carry no ownership and resolve to nil.
func (h *handleonce) localObj(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return h.fi.info.ObjectOf(id)
}

func (h *handleonce) transferNode(node ast.Node, out handleState) {
	inspectLeaf(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			return false // deferred settlements are out of scope

		case *ast.FuncLit:
			h.literalEffects(n, out)
			return true // body pruned by inspectLeaf

		case *ast.AssignStmt:
			h.assign(n, out)
			return true // children re-visited below is fine (idempotent binds)

		case *ast.SendStmt:
			if v := h.localObj(n.Value); v != nil {
				h.settle(out, v, n.Pos())
			}

		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if v := h.localObj(r); v != nil {
					delete(out, v) // ownership moves to the caller
				}
			}

		case *ast.CallExpr:
			h.call(n, out)
		}
		return true
	})
}

func (h *handleonce) assign(n *ast.AssignStmt, out handleState) {
	rhsFor := func(i int) ast.Expr {
		if len(n.Rhs) == len(n.Lhs) {
			return n.Rhs[i]
		}
		if i == 0 && len(n.Rhs) == 1 {
			return n.Rhs[0] // v, ok := m[k]
		}
		return nil
	}
	for i, lhs := range n.Lhs {
		lhs = ast.Unparen(lhs)
		rhs := rhsFor(i)

		// m[k] = v with m tracked: the map owns the handle again.
		if idx, ok := lhs.(*ast.IndexExpr); ok {
			if mobj := resourceID(h.fi.info, idx.X); mobj != nil && h.tracked[mobj] {
				if rhs != nil {
					if v := h.localObj(rhs); v != nil {
						delete(out, v)
					}
				}
				continue
			}
		}

		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			v := h.fi.info.ObjectOf(id)
			if v == nil {
				continue
			}
			// v := m[k] over a tracked map binds v.
			if rhs != nil {
				if idx, ok := ast.Unparen(rhs).(*ast.IndexExpr); ok {
					if mobj := resourceID(h.fi.info, idx.X); mobj != nil && h.tracked[mobj] {
						out[v] = handleVar{st: hBound, m: mobj, key: resourceID(h.fi.info, idx.Index), pos: n.Pos()}
						continue
					}
				}
			}
			// Any other rebinding forgets the old value.
			delete(out, v)
			continue
		}

		// Store into a field, slice or untracked map: the handle escapes.
		if rhs != nil {
			if v := h.localObj(rhs); v != nil {
				delete(out, v)
			}
		}
	}
}

func (h *handleonce) call(n *ast.CallExpr, out handleState) {
	// delete(m, k) on a tracked map.
	if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "delete" && len(n.Args) == 2 {
		if _, isBuiltin := h.fi.info.Uses[id].(*types.Builtin); isBuiltin {
			mobj := resourceID(h.fi.info, n.Args[0])
			if mobj == nil || !h.tracked[mobj] {
				return
			}
			elem := elemStruct(mobj.Type())
			dkey := resourceID(h.fi.info, n.Args[1])
			// Variables bound to this map under the same key (or a key
			// the analysis cannot resolve) owe a settlement now; a bind
			// under a provably different key is another entry.
			for v, hv := range out {
				if hv.st != hBound || hv.m != mobj {
					continue
				}
				if hv.key != nil && dkey != nil && hv.key != dkey {
					continue
				}
				out[v] = handleVar{st: hDetached, m: mobj, key: hv.key, pos: n.Pos()}
			}
			// delete(m, x.field): x holds the detached handle.
			if sel, ok := ast.Unparen(n.Args[1]).(*ast.SelectorExpr); ok {
				if base := baseIdent(sel.X); base != nil && base.Name != "_" {
					x := h.fi.info.ObjectOf(base)
					if x != nil && sameElemType(x.Type(), elem) {
						out[x] = handleVar{st: hDetached, m: mobj, pos: n.Pos()}
					}
				}
			}
			return
		}
	}

	// A Complete() or Trigger() method call rooted at v settles v.
	if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
		if fn, isFn := h.fi.info.Uses[sel.Sel].(*types.Func); isFn && settleMethod(fn.Name()) {
			if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
				if base := baseIdent(sel.X); base != nil {
					if v := h.fi.info.ObjectOf(base); v != nil {
						if _, trackedVar := out[v]; trackedVar {
							h.settle(out, v, n.Pos())
							return
						}
					}
				}
			}
		}
		// q.Send(p, v) / q.TrySend(v) hands the handle to a queue.
		if fn, isFn := h.fi.info.Uses[sel.Sel].(*types.Func); isFn && (fn.Name() == "Send" || fn.Name() == "TrySend") {
			for _, a := range n.Args {
				if v := h.localObj(a); v != nil {
					if _, trackedVar := out[v]; trackedVar {
						h.settle(out, v, n.Pos())
					}
				}
			}
			return
		}
	}

	// Same-package callee: its summary says which params it may settle.
	if _, callee := h.fi.staticCallee(n); callee != nil {
		mask := h.summary(callee)
		for i, a := range n.Args {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			if v := h.localObj(a); v != nil {
				h.settle(out, v, n.Pos())
			}
		}
	}
	// Calls the package cannot see into (function-typed values, other
	// packages) deliberately leave the state unchanged.
}

// settleMethod reports whether a method name is a settlement verb: the
// completion callback on a request (Complete) or the wake-up on a
// parked waiter's event (Trigger).
func settleMethod(name string) bool { return name == "Complete" || name == "Trigger" }

// sameElemType reports whether t (possibly a pointer) is the named
// struct elem.
func sameElemType(t types.Type, elem *types.Named) bool {
	if elem == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == elem.Obj()
}

// literalEffects models a function literal mentioning tracked variables:
// if its body settles the variable the capture IS the settlement
// (scheduled requeue callbacks); otherwise the variable escapes into the
// closure and tracking ends.
func (h *handleonce) literalEffects(lit *ast.FuncLit, out handleState) {
	mentioned := map[types.Object]bool{}
	settles := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if v := h.fi.info.ObjectOf(n); v != nil {
				if _, trackedVar := out[v]; trackedVar {
					mentioned[v] = true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if mobj := resourceID(h.fi.info, idx.X); mobj != nil && h.tracked[mobj] {
					if v := h.localObj(n.Rhs[i]); v != nil {
						settles[v] = true
					}
				}
			}
		case *ast.SendStmt:
			if v := h.localObj(n.Value); v != nil {
				settles[v] = true
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if fn, isFn := h.fi.info.Uses[sel.Sel].(*types.Func); isFn {
					switch {
					case settleMethod(fn.Name()):
						if base := baseIdent(sel.X); base != nil {
							if v := h.fi.info.ObjectOf(base); v != nil {
								settles[v] = true
							}
						}
					case fn.Name() == "Send" || fn.Name() == "TrySend":
						for _, a := range n.Args {
							if v := h.localObj(a); v != nil {
								settles[v] = true
							}
						}
					}
				}
			}
		}
		return true
	})
	for v := range mentioned {
		if settles[v] {
			h.settle(out, v, lit.Pos())
		} else {
			delete(out, v)
		}
	}
}

// summary computes (memoized, recursion-guarded) the bitmask of
// parameters a function may settle, propagating a flow-insensitive
// taint from parameters through simple assignments.
func (h *handleonce) summary(fd *ast.FuncDecl) int {
	if mask, done := h.summaries[fd]; done {
		return mask
	}
	if h.inProgress[fd] {
		return 0
	}
	h.inProgress[fd] = true
	defer func() { h.inProgress[fd] = false }()

	// taint: object -> bitmask of originating parameter indices.
	taint := map[types.Object]int{}
	fn, isFn := h.fi.info.Defs[fd.Name].(*types.Func)
	if !isFn {
		h.summaries[fd] = 0
		return 0
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		taint[sig.Params().At(i)] = 1 << uint(i)
	}

	baseTaint := func(e ast.Expr) int {
		if base := baseIdent(e); base != nil {
			if v := h.fi.info.ObjectOf(base); v != nil {
				return taint[v]
			}
		}
		return 0
	}

	// Propagate taint through assignments to fixpoint.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, isIdent := ast.Unparen(lhs).(*ast.Ident)
				if !isIdent {
					continue
				}
				v := h.fi.info.ObjectOf(id)
				if v == nil {
					continue
				}
				if t := baseTaint(as.Rhs[i]); t&^taint[v] != 0 {
					taint[v] |= t
					changed = true
				}
			}
			return true
		})
	}

	mask := 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if mobj := resourceID(h.fi.info, idx.X); mobj != nil && h.tracked[mobj] {
					mask |= baseTaint(n.Rhs[i])
				}
			}
		case *ast.SendStmt:
			mask |= baseTaint(n.Value)
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if fnUse, isFn := h.fi.info.Uses[sel.Sel].(*types.Func); isFn {
					switch {
					case settleMethod(fnUse.Name()):
						mask |= baseTaint(sel.X)
					case fnUse.Name() == "Send" || fnUse.Name() == "TrySend":
						for _, a := range n.Args {
							mask |= baseTaint(a)
						}
					}
				}
			}
			if _, callee := h.fi.staticCallee(n); callee != nil && callee != fd {
				sub := h.summary(callee)
				for i, a := range n.Args {
					if sub&(1<<uint(i)) != 0 {
						if id, isIdent := ast.Unparen(a).(*ast.Ident); isIdent {
							if v := h.fi.info.ObjectOf(id); v != nil {
								mask |= taint[v]
							}
						}
					}
				}
			}
		}
		return true
	})
	h.summaries[fd] = mask
	return mask
}
