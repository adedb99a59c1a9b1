package wavepipe

import (
	"wavepipe/internal/circuit"
	"wavepipe/internal/transient"
)

// runForced is Run with the run's stage gang forced, so that every round
// really runs one task per goroutine whatever the host — the path the race
// detector has to see on a one-CPU machine, where Run would serialize it.
func runForced(sys *circuit.System, opts Options) (*transient.Result, error) {
	e := newEngine(sys, opts)
	defer e.close()
	e.gang.Force = true
	return e.run(sys)
}
