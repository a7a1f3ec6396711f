package analysis

import (
	"strings"
	"testing"
)

func TestIgnoreDirectives(t *testing.T) {
	findings := runFixture(t, "ignore", WaitLoop)

	var suppressed []Finding
	for _, f := range findings {
		if f.Suppressed {
			suppressed = append(suppressed, f)
		}
	}
	if len(suppressed) != 2 {
		t.Fatalf("suppressed findings = %d, want 2: %v", len(suppressed), suppressed)
	}
	for _, f := range suppressed {
		if f.Reason == "" {
			t.Errorf("suppressed finding without a recorded reason: %s", f)
		}
		if f.Analyzer != "waitloop" {
			t.Errorf("suppressed finding from %s, want waitloop: %s", f.Analyzer, f)
		}
	}
	// One directive sits on the flagged line, one on the line above.
	if suppressed[0].Pos.Line+0 == suppressed[1].Pos.Line {
		t.Errorf("expected two distinct suppression sites, got %v", suppressed)
	}
	if !strings.Contains(suppressed[0].Reason, "adapter method") {
		t.Errorf("reason not carried through: %q", suppressed[0].Reason)
	}
}
