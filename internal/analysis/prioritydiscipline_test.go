package analysis

import "testing"

func TestPriorityDiscipline(t *testing.T) {
	runFixture(t, "prioritydiscipline", PriorityDiscipline)
}
