package ensemble

import (
	"testing"

	"wavepipe/internal/sched"
)

// forceGang makes the run's lane gang really concurrent for the rest of the
// test, whatever the host (see sched.ForceGang) — the path the race detector
// has to see on a one-CPU machine, where the pool would degrade to a sweep.
func forceGang(t testing.TB) {
	t.Helper()
	sched.ForceGang.Store(true)
	t.Cleanup(func() { sched.ForceGang.Store(false) })
}
