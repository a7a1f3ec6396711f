package analysis

import "testing"

func TestAlerted(t *testing.T) {
	runFixture(t, "alerted", Alerted)
}
