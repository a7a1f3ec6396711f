package analysis

import "testing"

func TestGuardedByAnnotated(t *testing.T) {
	runFixture(t, "guardedby", GuardedBy)
}

func TestGuardedByInference(t *testing.T) {
	runFixture(t, "guardedby_infer", GuardedBy)
}

// The annotation lives in guardedby_dep; the violation and the
// summary-covered accesses live in guardedby_x.
func TestGuardedByCrossPackage(t *testing.T) {
	findings := runFixturePkgs(t, []string{"guardedby_dep", "guardedby_x"}, GuardedBy)
	unsuppressed := 0
	for _, f := range findings {
		if !f.Suppressed {
			unsuppressed++
		}
	}
	if unsuppressed != 1 {
		t.Errorf("got %d unsuppressed findings, want exactly the annotated bad read", unsuppressed)
	}
}
