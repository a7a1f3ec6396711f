package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// GuardedBy enforces the data-protection discipline the paper's mutex
// specification exists for: shared variables are accessed only while the
// mutex that protects them is held (paper, The Mutex and Condition types —
// a mutex "is used to protect shared data"). The binding of data to lock
// is declared with //threads:guardedby and //threads:guards annotations
// (guards.go) or inferred from the majority held-lock set across a field's
// write sites, and enforcement is interprocedural: an access is covered if
// the guard is held locally, held by a function this one (transitively)
// called that returns holding it, or held by every caller on every path to
// this function (the Program's entry-held fixpoint).
//
// Also modeled, because the specification calls them out:
//
//   - Condition.Wait's release-and-reacquire window: a local loaded from a
//     guarded field before Wait on its guard may be stale after Wait
//     returns (return from Wait is only a hint; the state must be
//     re-examined);
//   - TryAcquire: the lock is held only on the success branch, so accesses
//     on the failure path are unprotected (path sensitivity comes from the
//     seqwalk walker);
//   - deferred Release: `defer m.Release()` keeps the guard held to every
//     exit.
//
// Unannotated fields whose writes are consistently covered by one sibling
// lock get an advisory ready-to-paste annotation suggestion.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc: "check that annotated (or inferred) guarded fields are accessed " +
		"only with their mutex held, across package boundaries (paper, The " +
		"Mutex and Condition types: a mutex protects shared data; return " +
		"from Wait is a hint, not a guarantee)",
	Run: runGuardedBy,
}

// inference is the result of guessing an unannotated candidate field's
// guard from its write sites: the sibling lock covering the most writes.
type inference struct {
	field     *fieldInfo
	guard     string // winning sibling lock field name
	writes    int    // total write sites observed
	covered   int    // writes with the winning guard held
	uncovered []accessRec
}

// inferGuards computes (once per Program) the best-guess guard for every
// unannotated candidate field with at least one recorded write.
func (s *Summaries) inferGuards(guards *GuardTable) map[string]*inference {
	if s.inferred != nil {
		return s.inferred
	}
	s.finalize()
	s.inferred = make(map[string]*inference)
	byField := make(map[string][]accessRec)
	for _, rec := range s.accesses {
		if !rec.write || guards.specs[rec.fieldKey] != nil || guards.fields[rec.fieldKey] == nil {
			continue
		}
		byField[rec.fieldKey] = append(byField[rec.fieldKey], rec)
	}
	for key, recs := range byField {
		fi := guards.fields[key]
		var best *inference
		for _, lock := range fi.siblings {
			inf := &inference{field: fi, guard: lock, writes: len(recs)}
			for _, rec := range recs {
				if rec.baseUni != "" && s.covered(rec, rec.baseUni+"."+lock) {
					inf.covered++
				} else {
					inf.uncovered = append(inf.uncovered, rec)
				}
			}
			if best == nil || inf.covered > best.covered {
				best = inf
			}
		}
		if best != nil {
			s.inferred[key] = best
		}
	}
	return s.inferred
}

func runGuardedBy(pass *Pass) error {
	prog := pass.Prog
	if prog == nil {
		return nil
	}
	sums := prog.Summaries()
	guards := prog.Guards()
	sums.finalize()
	path := pass.Pkg.ImportPath

	// Malformed annotations, reported where they are written.
	for _, e := range guards.errs {
		if e.pkg == path {
			pass.Reportf(e.pos, "%s", e.msg)
		}
	}

	// Annotated accesses: every read or write of a guarded field reachable
	// without its guard held.
	for _, rec := range sums.accesses {
		if rec.pkg != path {
			continue
		}
		spec := guards.specs[rec.fieldKey]
		if spec == nil {
			continue
		}
		req, reqDisp, ok := spec.requirement(rec.baseUni)
		if !ok || sums.covered(rec, req) {
			continue
		}
		action := "read"
		if rec.write {
			action = "write"
		}
		pass.Report(Diagnostic{
			Pos: rec.pos,
			Message: fmt.Sprintf("%s of %s without %s held: the field is annotated //%s %s",
				action, rec.display, reqDisp, GuardedByDirective, spec.guardDisp),
			Related: []token.Position{spec.pos},
		})
	}

	// Wait sites whose mutex guards annotated data but is not held: the
	// release-and-reacquire window (and Wait's own precondition) runs
	// unprotected.
	guardClasses := make(map[string]bool)
	for _, spec := range guards.specs {
		if spec.global != "" {
			guardClasses[spec.global] = true
		} else if i := strings.LastIndex(spec.fieldKey, "."); i > 0 {
			guardClasses[spec.fieldKey[:i]+"."+spec.sibling] = true
		}
	}
	for _, rec := range sums.waits {
		if rec.pkg != path || !guardClasses[rec.mutexUni] {
			continue
		}
		if sums.entryHolds(rec.funcKey, rec.mutexUni) {
			continue
		}
		pass.Reportf(rec.pos, "Wait with mutex %s not held: %s guards annotated fields and Wait "+
			"requires (then releases and re-acquires) it", rec.display, rec.display)
	}

	// Locals carried across the Wait window: the guard was released and
	// re-acquired in between, so the loaded value may no longer describe
	// the state.
	for _, rec := range sums.stales {
		if rec.pkg != path {
			continue
		}
		pass.Report(Diagnostic{
			Pos: rec.pos,
			Message: fmt.Sprintf("use of %s, loaded from %s before Wait released %s: return from Wait "+
				"is only a hint and the value may be stale — reload it after Wait", rec.varName, rec.fieldDisp, rec.guardDisp),
			Related: []token.Position{pass.Fset.Position(rec.waitPos)},
		})
	}

	// Inference: unannotated fields whose writes are dominantly covered by
	// one sibling lock. Deviations from a strong majority are findings;
	// consistent fields become advisory annotation suggestions.
	inferred := sums.inferGuards(guards)
	keys := make([]string, 0, len(inferred))
	for key := range inferred {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		inf := inferred[key]
		if inf.writes >= 4 && inf.covered < inf.writes && inf.covered*4 >= inf.writes*3 {
			for _, rec := range inf.uncovered {
				if rec.pkg != path {
					continue
				}
				pass.Report(Diagnostic{
					Pos: rec.pos,
					Message: fmt.Sprintf("write of %s without %s held, but %d of %d writes hold it: "+
						"likely missing guard (annotate the field //%s %s to enforce)",
						rec.display, inf.guard, inf.covered, inf.writes, GuardedByDirective, inf.guard),
					Related: []token.Position{inf.field.pos},
				})
			}
		}
		if inf.field.pkg == path && inf.writes >= 2 && inf.covered == inf.writes {
			pass.Report(Diagnostic{
				Pos:  inf.field.posTok,
				Info: true,
				Message: fmt.Sprintf("suggestion: all %d writes of %s.%s hold %s — annotate it "+
					"//%s %s", inf.writes, inf.field.structName, inf.field.name, inf.guard,
					GuardedByDirective, inf.guard),
			})
		}
	}
	return nil
}
