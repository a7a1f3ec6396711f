package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// NubDiscipline is the self-check for the Nub layer (internal/core): no
// blocking calls, no heap allocation and no indirect calls (callbacks)
// while a spin lock from internal/spinlock is held. The paper's Firefly
// implementation keeps Nub critical sections to a handful of straight-line
// instructions — the spin lock is only tolerable because nothing inside it
// can wait, allocate (and hence trigger GC or grow the stack) or run
// arbitrary code; DESIGN.md states the invariant in prose and this
// analyzer makes it a build failure.
//
// Flagged while a spin lock is held:
//
//   - blocking operations: channel send/receive/select/range, go
//     statements, time.Sleep, runtime.Gosched, sync primitives (sync/atomic
//     excepted), fmt/os/log I/O, and any blocking threads-API call;
//   - allocation: make/new/append, &composite literals, closures, string
//     concatenation;
//   - indirect calls through function values (callbacks: arbitrary code
//     under the Nub lock);
//   - calls to functions declared anywhere in the analyzed program that
//     transitively do any of the above (summaries are propagated over the
//     cross-package call graph by the Program's summary engine).
//
// The analyzer runs only on packages that import internal/spinlock, and
// not on internal/spinlock itself.
var NubDiscipline = &Analyzer{
	Name: "nubdiscipline",
	Doc: "check that nothing blocks, allocates or calls back while an " +
		"internal/spinlock lock is held (DESIGN.md Nub invariant; paper, " +
		"Implementation: Nub critical sections are a few instructions)",
	Run: runNubDiscipline,
}

func runNubDiscipline(pass *Pass) error {
	runSpinDiscipline(pass, badNub, true, "the Nub invariant permits no "+
		"blocking, allocation or callbacks inside spin-locked sections "+
		"(DESIGN.md; paper, Implementation)")
	return nil
}

// runSpinDiscipline is the walk nubdiscipline and prioritydiscipline
// share. In every function of a package that imports internal/spinlock
// (other than spinlock itself), each node the summary engine classifies as
// kind while a spin lock is held is reported once, why completing the
// message. With blocking set, blocking threads-API calls under the lock
// are reported too.
func runSpinDiscipline(pass *Pass, kind badKind, blocking bool, why string) {
	if pass.Pkg.ImportPath == pkgSpinlock {
		return // the lock's own implementation operates on itself
	}
	imports := false
	for _, imp := range pass.Pkg.Types.Imports() {
		if imp.Path() == pkgSpinlock {
			imports = true
			break
		}
	}
	if !imports {
		return
	}

	sums := pass.Prog.Summaries()
	reported := make(map[token.Pos]bool)
	report := func(pos, origin token.Pos, lock, what string) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		d := Diagnostic{Pos: pos, Message: fmt.Sprintf("%s while spin lock %s is held: %s", what, lock, why)}
		if origin.IsValid() {
			// The transitive origin of the violation: an ignore directive
			// there covers every call site that reaches it.
			d.Related = []token.Position{pass.Fset.Position(origin)}
		}
		pass.Report(d)
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			w := &seqWalker{pass: pass}
			w.client = seqClient{
				node: func(n ast.Node, st *holds) bool {
					lock, held := spinHeld(st)
					if !held {
						return true
					}
					op, via := sums.badAt(pass, kind, n)
					switch {
					case op == nil:
						return true
					case via == nil:
						report(n.Pos(), token.NoPos, lock, op.what)
					default:
						report(n.Pos(), op.pos, lock, fmt.Sprintf("call to %s, which performs %s at %s",
							via.Name(), op.what, pass.Fset.Position(op.pos)))
					}
					return false
				},
			}
			if blocking {
				w.client.call = func(site *CallSite, ref lockRef, st *holds) {
					if lock, held := spinHeld(st); held && site.Op.Blocking() {
						report(site.Call.Pos(), token.NoPos, lock, fmt.Sprintf("blocking call %s(…)", callLabel(site)))
					}
				}
			}
			w.walkFunc(fd)
		}
	}
}

func spinHeld(st *holds) (string, bool) {
	for _, h := range st.def {
		if h.site.Face == FaceSpin {
			return h.ref.display, true
		}
	}
	return "", false
}

// nubBadOp describes n if it violates the Nub invariant by itself. For a
// static call that is not itself a violation it returns the callee instead,
// whose summary decides.
func nubBadOp(pass *Pass, n ast.Node) (string, *types.Func) {
	info := pass.Pkg.Info
	switch n := n.(type) {
	case *ast.SendStmt:
		return "channel send", nil
	case *ast.SelectStmt:
		return "select", nil
	case *ast.GoStmt:
		return "go statement (spawns a goroutine)", nil
	case *ast.RangeStmt:
		if t, ok := info.Types[n.X]; ok {
			if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
				return "range over channel", nil
			}
		}
	case *ast.UnaryExpr:
		switch n.Op {
		case token.ARROW:
			return "channel receive", nil
		case token.AND:
			if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
				return "allocation (&composite literal)", nil
			}
		}
	case *ast.FuncLit:
		return "allocation (closure)", nil
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if t, ok := info.Types[n.X]; ok {
				if b, isBasic := t.Type.Underlying().(*types.Basic); isBasic && b.Info()&types.IsString != 0 {
					return "allocation (string concatenation)", nil
				}
			}
		}
	case *ast.CallExpr:
		return nubBadCall(pass, n)
	}
	return "", nil
}

func nubBadCall(pass *Pass, call *ast.CallExpr) (string, *types.Func) {
	info := pass.Pkg.Info
	// Type conversions are not calls.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return "", nil
	}
	switch obj := Callee(info, call).(type) {
	case *types.Builtin:
		switch obj.Name() {
		case "make", "new":
			return fmt.Sprintf("allocation (%s)", obj.Name()), nil
		case "append":
			return "allocation (append may grow)", nil
		}
		return "", nil
	case *types.Func:
		pkg := obj.Pkg()
		if pkg == nil {
			return "", nil
		}
		switch pkg.Path() {
		case "sync/atomic", pkgSpinlock, "unsafe":
			return "", nil
		case "sync":
			return fmt.Sprintf("sync.%s call (may block or schedule)", obj.Name()), nil
		case "time":
			if obj.Name() == "Sleep" || obj.Name() == "After" || obj.Name() == "Tick" {
				return "time." + obj.Name() + " call", nil
			}
		case "runtime":
			if obj.Name() == "Gosched" {
				return "runtime.Gosched call (yields the processor)", nil
			}
		case "fmt", "os", "log", "io":
			return fmt.Sprintf("%s.%s call (I/O)", pkg.Path(), obj.Name()), nil
		}
		return "", obj
	default:
		// No static *types.Func callee: a call through a function value,
		// field or parameter (Callee yields nil or the *types.Var) —
		// arbitrary code under the spin lock.
		return "indirect call through a function value (callback)", nil
	}
}
