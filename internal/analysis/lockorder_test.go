package analysis

import "testing"

func TestLockOrder(t *testing.T) {
	runFixture(t, "lockorder", LockOrder)
}

func TestLockOrderInterprocedural(t *testing.T) {
	runFixture(t, "lockorder_inter", LockOrder)
}
