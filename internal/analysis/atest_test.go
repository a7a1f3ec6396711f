package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// This file is the fixture harness, modeled on
// golang.org/x/tools/go/analysis/analysistest: fixture packages live under
// testdata/src/<name>, and every line that should be flagged carries a
//
//	// want "regexp"
//
// comment (several regexps for several diagnostics on one line). runFixture
// loads the fixture, runs one analyzer, and requires the diagnostics and
// expectations to match exactly — a missing diagnostic and an unexpected
// diagnostic are both test failures, so fixtures pin both the flagged and
// the clean cases.

var (
	loaderOnce sync.Once
	loaderInst *Loader
	loaderErr  error
)

// sharedLoader caches one Loader per test binary: dependency type-checking
// (the threads packages plus their stdlib closure, from source) dominates
// fixture cost and is identical across fixtures.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderInst, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loaderInst
}

// loadFixture type-checks testdata/src/<fixture>.
func loadFixture(t *testing.T, fixture string) *Package {
	t.Helper()
	loader := sharedLoader(t)
	dir := filepath.Join(loader.ModuleRoot, "internal", "analysis", "testdata", "src", fixture)
	pkg, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	return pkg
}

// runFixture runs one analyzer (or, with a nil analyzer, the whole suite)
// over a fixture and checks its diagnostics against the want comments.
// Suppressed findings are not matched against wants: suppression fixtures
// assert over the returned findings directly.
func runFixture(t *testing.T, fixture string, a *Analyzer) []Finding {
	t.Helper()
	return runFixturePkgs(t, []string{fixture}, a)
}

// runFixturePkgs is runFixture over a multi-package program: every fixture
// is loaded as an analysis target and they are analyzed together, so
// cross-package summaries, annotations and suppressions are in play. The
// want comments of all packages are checked against the combined findings.
func runFixturePkgs(t *testing.T, fixtures []string, a *Analyzer) []Finding {
	t.Helper()
	pkgs := make([]*Package, len(fixtures))
	for i, fixture := range fixtures {
		pkgs[i] = loadFixture(t, fixture)
	}
	analyzers := All()
	if a != nil {
		analyzers = []*Analyzer{a}
	}
	d := &Driver{Analyzers: analyzers}
	findings, err := d.RunProgram(NewProgram(pkgs))
	if err != nil {
		t.Fatalf("running on %v: %v", fixtures, err)
	}
	checkWants(t, pkgs, findings)
	return findings
}

// checkWants requires the unsuppressed findings and the fixtures' want
// comments to match exactly, both directions.
func checkWants(t *testing.T, pkgs []*Package, findings []Finding) {
	t.Helper()
	type expectation struct {
		re      *regexp.Regexp
		matched bool
	}
	expected := make(map[string][]*expectation) // "file:line" → expectations
	wantRE := regexp.MustCompile(`// want (.*)$`)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, q := range splitQuoted(t, m[1], pos) {
						re, err := regexp.Compile(q)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", posKey(pos), q, err)
						}
						expected[posKey(pos)] = append(expected[posKey(pos)], &expectation{re: re})
					}
				}
			}
		}
	}

	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		key := posKey(f.Pos)
		var hit *expectation
		for _, exp := range expected[key] {
			if !exp.matched && exp.re.MatchString(f.Message) {
				hit = exp
				break
			}
		}
		if hit == nil {
			t.Errorf("%s: unexpected diagnostic: %s (%s)", key, f.Message, f.Analyzer)
			continue
		}
		hit.matched = true
	}
	for key, exps := range expected {
		for _, exp := range exps {
			if !exp.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, exp.re)
			}
		}
	}
}

func posKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}

// splitQuoted parses the quoted regexps of a want comment: `"a" "b"`.
func splitQuoted(t *testing.T, s string, pos token.Position) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			t.Fatalf("%s: malformed want comment near %q", posKey(pos), s)
		}
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '"' && s[i-1] != '\\' {
				end = i
				break
			}
		}
		if end < 0 {
			t.Fatalf("%s: unterminated want regexp", posKey(pos))
		}
		out = append(out, strings.ReplaceAll(s[1:end], `\"`, `"`))
		s = strings.TrimSpace(s[end+1:])
	}
	return out
}
