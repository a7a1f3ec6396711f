package analysis

import "testing"

func TestLockPair(t *testing.T) {
	runFixture(t, "lockpair", LockPair)
}
