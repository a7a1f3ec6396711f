package analysis

import (
	"go/ast"
	"testing"
)

// TestResolver pins the call-site resolution rules on the resolver fixture:
// dot imports, aliased imports, the simulator face's shifted mutex
// argument, and method-value captures.
func TestResolver(t *testing.T) {
	pkg := loadFixture(t, "resolver")
	parents := buildParents(pkg.Files)
	calls, sites, methodVals := Resolve(pkg, parents)

	if len(calls) != len(sites) {
		t.Errorf("calls (%d) and sites (%d) disagree", len(calls), len(sites))
	}

	got := make(map[Op]int)
	faces := make(map[Face]int)
	for _, site := range calls {
		got[site.Op]++
		faces[site.Face]++
	}
	wantOps := map[Op]int{
		OpAcquire:   4, // dot, alias, sim, methodvalue
		OpRelease:   4,
		OpWait:      2, // dot (core face) + sim face
		OpAlertWait: 1, // alias
		OpLock:      1, // dot
		OpTestAlert: 1, // dot
		OpV:         1, // alias
	}
	for op, want := range wantOps {
		if got[op] != want {
			t.Errorf("resolved %d %s calls, want %d", got[op], op, want)
		}
	}
	for op, n := range got {
		if wantOps[op] == 0 {
			t.Errorf("unexpected op %s resolved %d times", op, n)
		}
	}
	if faces[FaceSim] != 3 {
		t.Errorf("resolved %d sim-face calls, want 3 (Acquire/Wait/Release)", faces[FaceSim])
	}

	// The sim face passes *sim.Env first: Wait's mutex is argument one.
	for _, site := range calls {
		if site.Op != OpWait && site.Op != OpAlertWait && site.Op != OpLock {
			continue
		}
		if site.MutexArg == nil {
			t.Errorf("%s: no mutex argument resolved", pkg.Fset.Position(site.Call.Pos()))
			continue
		}
		if site.Face == FaceSim {
			if id, ok := ast.Unparen(site.MutexArg).(*ast.Ident); !ok || id.Name != "m" {
				t.Errorf("sim-face %s resolved mutex arg %v, want ident m",
					site.Op, site.MutexArg)
			}
		}
	}

	// w := c.AlertWait is not a call; it must surface as a method value so
	// the discipline is reported unanalyzable rather than silently passed.
	if len(methodVals) != 1 {
		t.Fatalf("method values = %d, want 1", len(methodVals))
	}
	if name := methodVals[0].Method.Name(); name != "AlertWait" {
		t.Errorf("method value resolved to %s, want AlertWait", name)
	}

	// The indirect call through w stays untracked — conservatively
	// unanalyzable, never misclassified.
	for _, site := range calls {
		if id, ok := site.Call.Fun.(*ast.Ident); ok && id.Name == "w" {
			t.Errorf("call through method value w wrongly tracked as %s", site.Op)
		}
	}

	// waitloop turns the capture into a diagnostic.
	runFixture(t, "resolver", WaitLoop)
}
