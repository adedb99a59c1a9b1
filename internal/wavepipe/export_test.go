package wavepipe

import (
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/sched"
)

// forceGang makes every stage gang really concurrent for the rest of the
// test, one task per goroutine whatever the host (see sched.ForceGang) — the
// path the race detector has to see on a one-CPU machine, where Run would
// serialize it.
func forceGang(t testing.TB) {
	t.Helper()
	sched.ForceGang.Store(true)
	t.Cleanup(func() { sched.ForceGang.Store(false) })
}

// runStages is run without its loop-head checks (guard, cancellation, point
// budget), calling visit(e) once the first point is established and again
// after every stage: a test's view of the engine between two stages.
func runStages(sys *circuit.System, opts Options, visit func(e *engine)) error {
	e := newEngine(sys, opts)
	defer e.close()
	if err := e.start(sys); err != nil {
		return err
	}
	visit(e)
	for !e.s.Done() {
		e.s.Stage++
		if err := e.stage(); err != nil {
			return err
		}
		visit(e)
	}
	return nil
}
