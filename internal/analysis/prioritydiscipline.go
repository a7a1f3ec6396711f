package analysis

import (
	"go/ast"
	"go/types"
)

// PriorityDiscipline checks that no scheduling priority is changed — and no
// priority-carrying thread forked — while a spin lock from internal/spinlock
// is held. Thread.SetPriority and Mutex.SetPriorityInheritance take the
// target thread's donation lock, which by the core lock order is the DEEPEST
// lock in the system (gate spin lock → donation lock, never the reverse);
// calling them with any spin lock held either inverts that order or extends
// a Nub critical section by a full donation-table recalculation plus trace
// emission. ForkPri/ForkNamedPri additionally allocate and spawn. The
// nubdiscipline analyzer catches generic blocking and allocation; this one
// names the priority API specifically, because Thread.SetPriority is
// spin-lock-free in isolation and would otherwise pass.
//
// Flagged while a spin lock is held:
//
//   - Thread.SetPriority and Mutex.SetPriorityInheritance (donation-lock
//     order violation);
//   - ForkPri / ForkNamedPri (allocation and scheduler entry with a
//     priority in hand);
//   - calls to functions declared anywhere in the analyzed program that
//     transitively do any of the above (the Program's summary engine, one
//     bad-operation kind alongside nubdiscipline's).
//
// The analyzer runs only on packages that import internal/spinlock, and not
// on internal/spinlock itself.
var PriorityDiscipline = &Analyzer{
	Name: "prioritydiscipline",
	Doc: "check that no priority is set and no priority-carrying thread is " +
		"forked while an internal/spinlock lock is held (the donation lock " +
		"is the deepest lock; see DESIGN.md on priority inheritance)",
	Run: runPriorityDiscipline,
}

func runPriorityDiscipline(pass *Pass) error {
	runSpinDiscipline(pass, badPriority, false, "priority changes take the "+
		"donation lock, the deepest lock in the core lock order (DESIGN.md)")
	return nil
}

// priorityBadOp describes n if it calls the priority API directly. For any
// other static call it returns the callee, whose summary decides.
func priorityBadOp(pass *Pass, n ast.Node) (string, *types.Func) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", nil
	}
	fn, ok := Callee(pass.Pkg.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", nil
	}
	if what := priorityAPICall(fn); what != "" {
		return what, nil
	}
	return "", fn
}

// priorityAPICall names the priority-mutating entry points of the threads
// facade and internal/core (the facade is type aliases onto core, so both
// resolve to core objects).
func priorityAPICall(fn *types.Func) string {
	switch fn.Pkg().Path() {
	case pkgThreads, pkgCore:
	default:
		return ""
	}
	switch recvTypeName(fn) {
	case "Thread":
		if fn.Name() == "SetPriority" {
			return "Thread.SetPriority call"
		}
	case "Mutex":
		if fn.Name() == "SetPriorityInheritance" {
			return "Mutex.SetPriorityInheritance call"
		}
	case "":
		switch fn.Name() {
		case "ForkPri", "ForkNamedPri":
			return fn.Name() + " call"
		}
	}
	return ""
}
