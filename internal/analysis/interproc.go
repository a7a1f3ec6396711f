package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural engine behind the cross-package modes of
// lockpair, lockorder, nubdiscipline, prioritydiscipline and the whole
// guardedby analyzer. It computes, per function declared anywhere in the
// Program:
//
//   - a bottom-up effect summary (FuncSummary): which lock classes the
//     function still holds at every return (NetHeld), which it releases on
//     its caller's behalf (Releases), and which it acquires anywhere inside,
//     transitively (Acquires). The seqwalk walker consults these at every
//     untracked call, so `mon.Enter()` makes the monitor's mutex held in
//     the caller and `defer mon.Exit()` discharges it.
//
//   - a top-down entry-held set: the lock classes every caller holds at
//     every call site (intersected over the call graph to a fixed point),
//     so a helper that is only ever called under q.mu may touch q's guarded
//     fields without a finding.
//
//   - per bad-operation kind, the first operation the kind forbids under a
//     spin lock, transitively (badOf): nubdiscipline's blocking,
//     allocation and callbacks, prioritydiscipline's priority changes.
//
//   - flat site records (calls, guarded-field accesses, Wait sites,
//     stale-local reads) that the guardedby analyzer turns into findings
//     and inference.
//
// Identity across packages is by name, not object: functions key by
// FuncKeyOf and locks by universalKey, because the Loader type-checks each
// target package separately and *types.Func/*types.Var pointers do not
// survive the package boundary. Functions outside the Program summarize
// nil: every analysis degrades to false negatives at the horizon, never
// false positives.

// extRelease prefixes holds.ext entries recording lock classes a path
// released without a prior acquire (the function releases them on its
// caller's behalf).
const extRelease = "xrel:"

// extLoad prefixes holds.ext entries recording locals loaded from guarded
// fields, for the stale-read-across-Wait check.
const extLoad = "load:"

// refInfo describes one lock class in a summary. Comparable, so ext
// entries join by equality across paths.
type refInfo struct {
	Display string
	Face    Face
	Op      Op
}

// FuncSummary is the externally visible lock effect of calling a function.
type FuncSummary struct {
	Key string
	// NetHeld: lock classes (universal keys) definitely held at every exit
	// and not discharged by a defer — calling this function leaves them
	// held in the caller.
	NetHeld map[string]refInfo
	// Releases: classes released on every path without a prior acquire —
	// calling this function releases the caller's lock.
	Releases map[string]refInfo
	// Acquires: every mutex class acquired anywhere inside, transitively
	// (class-keyed like direct lockorder edges).
	Acquires map[string]refInfo
}

// loadVal tracks one local loaded from a guarded field. Comparable.
type loadVal struct {
	guardUni  string
	guardDisp string
	fieldDisp string
	stale     token.Pos // Wait site that invalidated it; 0 while fresh
}

// sameSource reports whether two loads describe the same field under the
// same guard, regardless of staleness.
func (lv loadVal) sameSource(o loadVal) bool {
	return lv.guardUni == o.guardUni && lv.guardDisp == o.guardDisp && lv.fieldDisp == o.fieldDisp
}

// callRec is one static module-local call site: callee key plus the lock
// classes held at the site in the caller.
type callRec struct {
	caller string // enclosing context key; "" inside another-thread literals
	callee string
	held   map[string]bool
}

// accessRec is one read or write of a guard-relevant struct field or
// package variable.
type accessRec struct {
	fieldKey string // "(pkg.T).f" or "pkg.v"
	display  string // source-like rendering at this site
	pos      token.Pos
	pkg      string // import path of the accessing package
	funcKey  string // entry-held context; "" inside another-thread literals
	write    bool
	held     map[string]bool // universal keys held at the site
	baseUni  string          // universal key of the selector base; "" for package vars
}

// waitRec is a Condition.Wait-family site whose mutex was not locally held.
type waitRec struct {
	pos      token.Pos
	pkg      string
	funcKey  string
	mutexUni string
	display  string
	op       Op
}

// staleRec is a use of a local loaded from a guarded field before a Wait on
// its guard: Wait released and re-acquired the lock, so the value may be
// stale.
type staleRec struct {
	pos       token.Pos
	pkg       string
	varName   string
	fieldDisp string
	guardDisp string
	waitPos   token.Pos
}

// entrySet is one function's entry-held set during and after the fixpoint.
type entrySet struct {
	top bool // not yet constrained by any resolved call site
	set map[string]bool
}

// Summaries is the per-Program interprocedural engine. Not safe for
// concurrent use; the driver runs analyzers sequentially.
type Summaries struct {
	prog *Program

	memo map[string]*FuncSummary
	busy map[string]bool

	bad     map[badKey]*badOp
	badBusy map[badKey]bool

	final    bool
	calls    []callRec
	accesses []accessRec
	waits    []waitRec
	stales   []staleRec
	entry    map[string]*entrySet

	inferred map[string]*inference
}

func newSummaries(prog *Program) *Summaries {
	return &Summaries{
		prog:    prog,
		memo:    make(map[string]*FuncSummary),
		busy:    make(map[string]bool),
		bad:     make(map[badKey]*badOp),
		badBusy: make(map[badKey]bool),
	}
}

// effects returns fn's summary, or nil when fn is not declared in the
// Program (or is currently on the computation stack — recursion
// contributes nothing, the false-negative direction).
func (s *Summaries) effects(fn *types.Func) *FuncSummary {
	key := FuncKeyOf(fn)
	if key == "" {
		return nil
	}
	return s.summary(key)
}

func (s *Summaries) summary(key string) *FuncSummary {
	if sum, ok := s.memo[key]; ok {
		return sum
	}
	if s.busy[key] {
		return nil
	}
	d := s.prog.decls[key]
	if d == nil || d.decl.Body == nil {
		s.memo[key] = nil
		return nil
	}
	s.busy[key] = true
	sum := s.computeSummary(key, d)
	delete(s.busy, key)
	s.memo[key] = sum
	return sum
}

func (s *Summaries) computeSummary(key string, d *declSite) *FuncSummary {
	pass := s.prog.pass(d.ctx)
	info := pass.Pkg.Info

	type exitSnap struct {
		held map[string]refInfo
		rels map[string]refInfo
	}
	var exits []exitSnap
	acquires := make(map[string]refInfo)
	depth := 0

	w := &seqWalker{pass: pass, sums: s}
	w.client = seqClient{
		enterFunc: func(ast.Node, bool) { depth++ },
		leaveFunc: func(ast.Node) { depth-- },
		call: func(site *CallSite, ref lockRef, st *holds) {
			if !ref.ok {
				return
			}
			switch site.Op {
			case OpAcquire, OpLock:
				if ref.classKey != "" {
					acquires[ref.classKey] = refInfo{Display: ref.display, Face: site.Face, Op: site.Op}
				}
			case OpRelease, OpSpinUnlock:
				if ref.uniKey == "" {
					break
				}
				// A deferred release fires at exit, not here: walkDefer marks
				// the hold instead.
				if _, isDefer := pass.Parent(site.Call).(*ast.DeferStmt); isDefer {
					break
				}
				_, defHeld := st.def[ref.key]
				_, maybeHeld := st.maybe[ref.key]
				if !defHeld && !maybeHeld && !hasClassHeld(st, ref.uniKey) {
					st.setExt(extRelease+ref.uniKey, refInfo{Display: ref.display, Face: site.Face, Op: site.Op})
				}
			}
		},
		node: func(n ast.Node, st *holds) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, tracked := pass.Site(call); tracked {
				return true
			}
			if fn, ok := Callee(info, call).(*types.Func); ok {
				if sub := s.effects(fn); sub != nil {
					for ck, ri := range sub.Acquires {
						acquires[ck] = ri
					}
				}
			}
			return true
		},
		exit: func(pos token.Pos, st *holds) {
			if depth != 1 {
				return // a nested literal's exit, not the function's
			}
			snap := exitSnap{held: make(map[string]refInfo), rels: make(map[string]refInfo)}
			for _, h := range st.def {
				if h.deferred || h.ref.uniKey == "" {
					continue
				}
				op := OpAcquire
				if h.site.Face == FaceSpin {
					op = OpSpinLock
				}
				snap.held[h.ref.uniKey] = refInfo{Display: h.ref.display, Face: h.site.Face, Op: op}
			}
			for k, v := range st.ext {
				if ck, ok := strings.CutPrefix(k, extRelease); ok {
					if ri, ok := v.(refInfo); ok {
						snap.rels[ck] = ri
					}
				}
			}
			exits = append(exits, snap)
		},
	}
	w.walkFunc(d.decl)

	sum := &FuncSummary{Key: key}
	if len(acquires) > 0 {
		sum.Acquires = acquires
	}
	for i, snap := range exits {
		if i == 0 {
			sum.NetHeld = snap.held
			sum.Releases = snap.rels
			continue
		}
		intersectRefs(sum.NetHeld, snap.held)
		intersectRefs(sum.Releases, snap.rels)
	}
	if len(sum.NetHeld) == 0 {
		sum.NetHeld = nil
	}
	if len(sum.Releases) == 0 {
		sum.Releases = nil
	}
	if sum.NetHeld == nil && sum.Releases == nil && sum.Acquires == nil {
		return nil // effect-free: callers skip the lookup entirely
	}
	return sum
}

func intersectRefs(into, other map[string]refInfo) {
	for k := range into {
		if _, ok := other[k]; !ok {
			delete(into, k)
		}
	}
}

// badKind names one analyzer's class of operations forbidden under a spin
// lock. Each kind is summarized on its own, so one analyzer's violations
// neither mask nor leak into another's.
type badKind int

const (
	badNub      badKind = iota // blocks, allocates or calls back (nubdiscipline)
	badPriority                // changes a scheduling priority (prioritydiscipline)
	numBadKinds
)

// badClassifiers decide, per kind, whether one node is itself a violation
// (its description) or a static call whose callee's summary decides.
var badClassifiers = [numBadKinds]func(*Pass, ast.Node) (string, *types.Func){
	badNub:      nubBadOp,
	badPriority: priorityBadOp,
}

// badOp is a violation found at pos: the node itself, or the transitive
// origin deep in a callee (possibly in another package); findings attach
// the origin as a related position so one ignore directive there covers
// every caller. Functions without a body (assembly, linkname) summarize
// clean: the runtime-facing helpers they bind are the mechanism the Nub is
// built on.
type badOp struct {
	what string
	pos  token.Pos
}

type badKey struct {
	fn   string
	kind badKind
}

// badAt classifies one node for kind. When the violation is reached
// through a call, via is the callee.
func (s *Summaries) badAt(pass *Pass, kind badKind, n ast.Node) (op *badOp, via *types.Func) {
	what, callee := badClassifiers[kind](pass, n)
	if what != "" {
		return &badOp{what: what, pos: n.Pos()}, nil
	}
	if callee != nil {
		if op := s.badOf(callee, kind); op != nil {
			return op, callee
		}
	}
	return nil, nil
}

// badOf is the cross-package summary behind nubdiscipline and
// prioritydiscipline: the first operation of the given kind anywhere in
// fn's body (transitively), or nil. The position is resolvable in any
// Program package: the Loader shares one FileSet.
func (s *Summaries) badOf(fn *types.Func, kind badKind) *badOp {
	key := badKey{FuncKeyOf(fn), kind}
	if key.fn == "" {
		return nil
	}
	if got, ok := s.bad[key]; ok {
		return got
	}
	if s.badBusy[key] {
		return nil
	}
	d := s.prog.decls[key.fn]
	if d == nil || d.decl.Body == nil {
		s.bad[key] = nil
		return nil
	}
	s.badBusy[key] = true
	defer delete(s.badBusy, key)

	pass := s.prog.pass(d.ctx)
	var found *badOp
	ast.Inspect(d.decl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		// A function that locks a spin lock itself is analyzed at its own
		// sites; nested spin sections do not make the *caller* bad. Only
		// operations that would run under the caller's lock count, which
		// conservatively is the whole body (paths are not tracked here).
		found, _ = s.badAt(pass, kind, n)
		return found == nil
	})
	s.bad[key] = found
	return found
}

// finalize runs the whole-program site pass (call records, guarded-field
// accesses, Wait sites, stale-local reads) and solves the entry-held
// fixpoint. Idempotent.
func (s *Summaries) finalize() {
	if s.final {
		return
	}
	s.final = true
	s.entry = make(map[string]*entrySet)

	guards := s.prog.Guards()
	keys := make([]string, 0, len(s.prog.decls))
	for key := range s.prog.decls {
		keys = append(keys, key)
	}
	sort.Strings(keys) // deterministic record order
	for _, key := range keys {
		s.walkSites(key, s.prog.decls[key], guards)
	}
	s.solveEntry()
}

// heldUniversalSet snapshots the universal keys of every held lock.
func heldUniversalSet(st *holds) map[string]bool {
	out := make(map[string]bool)
	for _, h := range st.def {
		if h.ref.uniKey != "" {
			out[h.ref.uniKey] = true
		}
	}
	for _, h := range st.maybe {
		if h.ref.uniKey != "" {
			out[h.ref.uniKey] = true
		}
	}
	return out
}

// walkSites walks one declaration recording interprocedural facts.
func (s *Summaries) walkSites(key string, d *declSite, guards *GuardTable) {
	pass := s.prog.pass(d.ctx)
	info := pass.Pkg.Info
	pkgPath := pass.Pkg.ImportPath

	// ctxStack tracks the entry-held context: the declaration's key, carried
	// into same-thread literals, cleared ("") in literals that run on
	// another thread.
	var ctxStack []string
	cur := func() string {
		if len(ctxStack) == 0 {
			return ""
		}
		return ctxStack[len(ctxStack)-1]
	}
	freshVars := make(map[types.Object]bool) // locals holding freshly allocated, unshared objects
	skipIdent := make(map[token.Pos]bool)    // assignment targets: not reads

	w := &seqWalker{pass: pass, sums: s}
	w.client = seqClient{
		enterFunc: func(fn ast.Node, fresh bool) {
			switch fn.(type) {
			case *ast.FuncDecl:
				ctxStack = append(ctxStack, key)
			default:
				if fresh {
					ctxStack = append(ctxStack, "")
				} else {
					ctxStack = append(ctxStack, cur())
				}
			}
		},
		leaveFunc: func(ast.Node) { ctxStack = ctxStack[:len(ctxStack)-1] },
		call: func(site *CallSite, ref lockRef, st *holds) {
			switch site.Op {
			case OpWait, OpAlertWait, OpAlertWaitDeadline:
				if !ref.ok || ref.uniKey == "" {
					return
				}
				_, defHeld := st.def[ref.key]
				_, maybeHeld := st.maybe[ref.key]
				if !defHeld && !maybeHeld && !hasClassHeld(st, ref.uniKey) {
					s.waits = append(s.waits, waitRec{
						pos: site.Call.Pos(), pkg: pkgPath, funcKey: cur(),
						mutexUni: ref.uniKey, display: ref.display, op: site.Op,
					})
				}
				// Wait atomically releases and re-acquires the mutex: locals
				// loaded from fields it guards are stale afterwards.
				for k, v := range st.ext {
					if lv, ok := v.(loadVal); ok && strings.HasPrefix(k, extLoad) &&
						lv.guardUni == ref.uniKey && lv.stale == 0 {
						lv.stale = site.Call.Pos()
						st.ext[k] = lv
					}
				}
			}
		},
		node: func(n ast.Node, st *holds) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				s.trackAssign(pass, guards, n, st, freshVars, skipIdent)
			case *ast.CallExpr:
				if _, tracked := pass.Site(n); tracked {
					return true
				}
				if fn, ok := Callee(info, n).(*types.Func); ok {
					if ckey := FuncKeyOf(fn); ckey != "" && s.prog.decls[ckey] != nil {
						s.calls = append(s.calls, callRec{
							caller: cur(), callee: ckey, held: heldUniversalSet(st),
						})
					}
				}
			case *ast.SelectorExpr:
				s.recordSelector(pass, guards, n, st, cur(), freshVars)
			case *ast.Ident:
				s.recordIdent(pass, guards, n, st, cur(), skipIdent)
			}
			return true
		},
	}
	w.walkFunc(d.decl)
}

// trackAssign maintains the fresh-allocation and guarded-load tables at an
// assignment: `q := &Q{}` makes q exempt from guard checking (unshared),
// `n := q.count` records a guarded load for the stale-across-Wait check,
// any other assignment to a tracked local clears its state.
func (s *Summaries) trackAssign(pass *Pass, guards *GuardTable, n *ast.AssignStmt, st *holds, freshVars map[types.Object]bool, skipIdent map[token.Pos]bool) {
	info := pass.Pkg.Info
	if len(n.Lhs) != len(n.Rhs) {
		// n, ok := f(): the targets are no longer fresh allocations or
		// guarded loads, whatever they were before.
		for _, lhs := range n.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				skipIdent[id.Pos()] = true
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if v, ok := obj.(*types.Var); ok {
					delete(freshVars, v)
					delete(st.ext, extLoad+localVarKey(v, pass.Fset))
				}
			}
		}
		return
	}
	for i := range n.Lhs {
		id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		skipIdent[id.Pos()] = true
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || id.Name == "_" {
			continue
		}
		rhs := ast.Unparen(n.Rhs[i])
		if isFreshAlloc(info, rhs) {
			freshVars[v] = true
			continue
		}
		delete(freshVars, v)
		vk := extLoad + localVarKey(v, pass.Fset)
		delete(st.ext, vk)
		if sel, ok := rhs.(*ast.SelectorExpr); ok {
			if fieldKey, baseUni, disp, ok := s.fieldOf(pass, sel); ok {
				if spec := guards.specs[fieldKey]; spec != nil {
					if req, reqDisp, ok := spec.requirement(baseUni); ok {
						st.setExt(vk, loadVal{guardUni: req, guardDisp: reqDisp, fieldDisp: disp})
					}
				}
			}
		}
	}
}

// isFreshAlloc reports expressions that yield a brand-new object no other
// thread can see yet: &T{…}, T{…}, new(T).
func isFreshAlloc(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, isLit := ast.Unparen(x.X).(*ast.CompositeLit)
			return isLit
		}
	case *ast.CallExpr:
		if b, ok := Callee(info, x).(*types.Builtin); ok {
			return b.Name() == "new"
		}
	}
	return false
}

func localVarKey(v *types.Var, fset *token.FileSet) string {
	return v.Name() + "@" + fset.Position(v.Pos()).String()
}

// fieldOf resolves a selector to a guard-relevant field of a Program-local
// struct: its cross-package field key, the universal key of the base, and
// a display string. Promoted (embedded) fields are skipped.
func (s *Summaries) fieldOf(pass *Pass, sel *ast.SelectorExpr) (fieldKey, baseUni, display string, ok bool) {
	info := pass.Pkg.Info
	selection, isSel := info.Selections[sel]
	if !isSel || selection.Kind() != types.FieldVal || len(selection.Index()) != 1 {
		return "", "", "", false
	}
	recv := selection.Recv()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || s.prog.byPath[named.Obj().Pkg().Path()] == nil {
		return "", "", "", false
	}
	baseUni, ok = universalKey(info, sel.X)
	if !ok {
		return "", "", "", false
	}
	_, bdisp, _ := RefKey(info, pass.Fset, sel.X, nil)
	if bdisp == "" {
		bdisp = "x"
	}
	return "(" + normalizedTypeName(recv) + ")." + sel.Sel.Name, baseUni, bdisp + "." + sel.Sel.Name, true
}

// recordSelector records accesses to guard-relevant struct fields and to
// annotated package variables referenced as pkg.Var.
func (s *Summaries) recordSelector(pass *Pass, guards *GuardTable, sel *ast.SelectorExpr, st *holds, funcKey string, freshVars map[types.Object]bool) {
	info := pass.Pkg.Info
	if fieldKey, baseUni, disp, ok := s.fieldOf(pass, sel); ok {
		if guards.specs[fieldKey] == nil && guards.fields[fieldKey] == nil {
			return
		}
		if root := rootObject(info, sel.X); root != nil && freshVars[root] {
			return // freshly allocated, unshared: constructor-style access
		}
		s.accesses = append(s.accesses, accessRec{
			fieldKey: fieldKey, display: disp, pos: sel.Sel.Pos(), pkg: pass.Pkg.ImportPath,
			funcKey: funcKey, write: isWriteTarget(pass, sel),
			held: heldUniversalSet(st), baseUni: baseUni,
		})
		return
	}
	// pkg.Var reference to an annotated package variable.
	if id, isID := ast.Unparen(sel.X).(*ast.Ident); isID {
		if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
			if v, isVar := info.Uses[sel.Sel].(*types.Var); isVar {
				s.recordPkgVar(pass, guards, v, sel.Sel.Name, sel.Sel.Pos(), sel, st, funcKey)
			}
		}
	}
}

// recordIdent records same-package references to annotated package
// variables and uses of stale guarded loads.
func (s *Summaries) recordIdent(pass *Pass, guards *GuardTable, id *ast.Ident, st *holds, funcKey string, skipIdent map[token.Pos]bool) {
	info := pass.Pkg.Info
	if parent, ok := pass.Parent(id).(*ast.SelectorExpr); ok && parent.Sel == id {
		return // the Sel of a selector: handled by recordSelector
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		s.recordPkgVar(pass, guards, v, id.Name, id.Pos(), id, st, funcKey)
		return
	}
	if skipIdent[id.Pos()] {
		return
	}
	vk := extLoad + localVarKey(v, pass.Fset)
	if lv, ok := st.ext[vk].(loadVal); ok && lv.stale != 0 {
		s.stales = append(s.stales, staleRec{
			pos: id.Pos(), pkg: pass.Pkg.ImportPath, varName: id.Name,
			fieldDisp: lv.fieldDisp, guardDisp: lv.guardDisp, waitPos: lv.stale,
		})
		lv.stale = 0 // one finding per load, not per use
		st.ext[vk] = lv
	}
}

func (s *Summaries) recordPkgVar(pass *Pass, guards *GuardTable, v *types.Var, name string, pos token.Pos, e ast.Expr, st *holds, funcKey string) {
	uni, ok := universalRootKey(v)
	if !ok || guards.specs[uni] == nil {
		return
	}
	s.accesses = append(s.accesses, accessRec{
		fieldKey: uni, display: name, pos: pos, pkg: pass.Pkg.ImportPath,
		funcKey: funcKey, write: isWriteTarget(pass, e),
		held: heldUniversalSet(st),
	})
}

// rootObject finds the root variable of a selector base (q in q.buf[i]),
// or nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isWriteTarget reports whether e is assigned to (possibly through
// indexing/dereference): `q.f = v`, `q.f += v`, `q.f++`, `q.buf[i] = v`.
func isWriteTarget(pass *Pass, e ast.Expr) bool {
	var n ast.Node = e
	for {
		switch p := pass.Parent(n).(type) {
		case *ast.AssignStmt:
			for _, l := range p.Lhs {
				if l == n {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return p.X == n
		case *ast.IndexExpr:
			if p.X != n {
				return false
			}
			n = p
		case *ast.StarExpr:
			n = p
		case *ast.ParenExpr:
			n = p
		default:
			return false
		}
	}
}

// solveEntry computes entry-held sets: EntryHeld(f) = ∩ over static call
// sites of (held at site ∪ EntryHeld(caller)). Functions never seen as a
// callee stay absent (∅): exported entry points assume nothing.
func (s *Summaries) solveEntry() {
	for _, rec := range s.calls {
		if s.entry[rec.callee] == nil {
			s.entry[rec.callee] = &entrySet{top: true}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, rec := range s.calls {
			es := s.entry[rec.callee]
			caller := s.entry[rec.caller] // nil: uncalled caller or "" context → ∅
			if caller != nil && caller.top {
				continue // unresolved caller constrains nothing yet
			}
			incoming := make(map[string]bool, len(rec.held))
			for k := range rec.held {
				incoming[k] = true
			}
			if caller != nil {
				for k := range caller.set {
					incoming[k] = true
				}
			}
			if es.top {
				es.top = false
				es.set = incoming
				changed = true
				continue
			}
			for k := range es.set {
				if !incoming[k] {
					delete(es.set, k)
					changed = true
				}
			}
		}
	}
	// Pure call cycles never reached from a resolved site: assume nothing.
	for _, es := range s.entry {
		if es.top {
			es.top = false
			es.set = nil
		}
	}
}

// entryHolds reports whether every caller of funcKey holds the lock class.
func (s *Summaries) entryHolds(funcKey, uni string) bool {
	if funcKey == "" || uni == "" {
		return false
	}
	es := s.entry[funcKey]
	return es != nil && es.set[uni]
}

// covered reports whether an access site is protected by the given lock
// class: held locally or by every caller.
func (s *Summaries) covered(rec accessRec, uni string) bool {
	return rec.held[uni] || s.entryHolds(rec.funcKey, uni)
}

// universalKey is RefKey with every named-type root keyed by its type: the
// fully class-level identity summaries and guard checks speak, stable
// across functions and packages ("(threads/derived.Ring).mu",
// "threads/internal/workload.tableMu").
func universalKey(info *types.Info, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return universalKey(info, x.X)
		}
	case *ast.StarExpr:
		return universalKey(info, x.X)
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok {
			return universalRootKey(v)
		}
	case *ast.SelectorExpr:
		if sel, isSel := info.Selections[x]; isSel && sel.Kind() == types.FieldVal {
			base, ok := universalKey(info, x.X)
			if !ok {
				return "", false
			}
			return base + "." + x.Sel.Name, true
		}
		if id, isID := ast.Unparen(x.X).(*ast.Ident); isID {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if v, isVar := info.Uses[x.Sel].(*types.Var); isVar {
					return universalRootKey(v)
				}
			}
		}
	}
	return "", false
}

// universalRootKey keys package-level variables by path.name and named-type
// roots by their type. Roots of unnamed type have no cross-function
// identity.
func universalRootKey(v *types.Var) (string, bool) {
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Path() + "." + v.Name(), true
	}
	t := v.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, ok := t.(*types.Named); ok {
		return "(" + normalizedTypeName(t) + ")", true
	}
	return "", false
}
