package analysis

import "testing"

func TestCondMutex(t *testing.T) {
	runFixture(t, "condmutex", CondMutex)
}
