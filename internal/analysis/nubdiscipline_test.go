package analysis

import "testing"

func TestNubDiscipline(t *testing.T) {
	runFixture(t, "nubdiscipline", NubDiscipline)
}
