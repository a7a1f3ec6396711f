package analysis

import (
	"strings"
	"testing"
)

// requireNoFindings runs the analyzer over one fixture package alone — the
// old same-package engine's view — and requires silence, proving the
// cross-package finding genuinely needs the multi-package program.
func requireNoFindings(t *testing.T, fixture string, a *Analyzer) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	d := &Driver{Analyzers: []*Analyzer{a}}
	findings, err := d.Run(pkg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if !f.Suppressed {
			t.Errorf("same-package run of %s found %s: %s — the cross-package fixture no longer proves a miss",
				fixture, f.Analyzer, f.Message)
		}
	}
}

// The acquire and release live in pairdep; only its summaries reveal that
// pairuse.leak returns holding Mu.
func TestLockPairCrossPackage(t *testing.T) {
	runFixturePkgs(t, []string{"pairdep", "pairuse"}, LockPair)
	requireNoFindings(t, "pairuse", LockPair)
}

// The A → B edge is closed only through orderdep.LockB.
func TestLockOrderCrossPackage(t *testing.T) {
	runFixturePkgs(t, []string{"orderdep", "orderuse"}, LockOrder)
	requireNoFindings(t, "orderuse", LockOrder)
}

// The allocation is inside nubdep.Grow, reachable only through its
// summary.
func TestNubDisciplineCrossPackage(t *testing.T) {
	runFixturePkgs(t, []string{"nubdep", "nubuse"}, NubDiscipline)
	requireNoFindings(t, "nubuse", NubDiscipline)
}

// The priority call is inside prioritydep.Raise, reachable only through
// its summary.
func TestPriorityDisciplineCrossPackage(t *testing.T) {
	runFixturePkgs(t, []string{"prioritydep", "priorityuse"}, PriorityDiscipline)
	requireNoFindings(t, "priorityuse", PriorityDiscipline)
}

// nubdiscipline and prioritydiscipline share one summary engine, one kind
// each: over the same program, nubdiscipline reports the allocation
// reached through prioritydep.Grow and not the priority call reached
// through prioritydep.Raise (and TestPriorityDisciplineCrossPackage pins
// the converse).
func TestSpinDisciplineKindsStaySeparate(t *testing.T) {
	pkgs := []*Package{loadFixture(t, "prioritydep"), loadFixture(t, "priorityuse")}
	d := &Driver{Analyzers: []*Analyzer{NubDiscipline}}
	findings, err := d.RunProgram(NewProgram(pkgs))
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "call to Grow, which performs allocation") {
		t.Fatalf("nubdiscipline findings = %v, want exactly the call to Grow", findings)
	}
}

// A directive at the violation's origin suppresses the finding reported in
// the importing package and must count as used, not stale.
func TestIgnoreDirectiveCrossPackage(t *testing.T) {
	findings := runFixturePkgs(t, []string{"ignoredep", "ignoreuse"}, NubDiscipline)
	suppressed := 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
			continue
		}
		if strings.Contains(f.Message, "suppresses nothing") {
			t.Errorf("cross-package directive reported stale: %s", f.Message)
		} else {
			t.Errorf("unexpected finding: %s", f.Message)
		}
	}
	if suppressed != 1 {
		t.Errorf("got %d suppressed findings, want 1 (the spin-locked call to Grow)", suppressed)
	}
}

// Corner cases of the sequential walker, pinned under lockpair.
func TestSeqwalkCorners(t *testing.T) {
	runFixturePkgs(t, []string{"seqcornerdep", "seqcorner"}, LockPair)
}
