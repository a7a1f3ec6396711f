package analysis

import "testing"

func TestWaitLoop(t *testing.T) {
	runFixture(t, "waitloop", WaitLoop)
}
