package faults

import "sync/atomic"

// Abort is a first-wins cooperative stop flag shared between a run's watchdog
// and its solver stack. The stall watchdog trips it once with a
// typed cause; the Newton loop polls it every iteration and the engines poll
// it at step boundaries, so even a hung solve is interrupted within one
// iteration. All methods are safe for concurrent use and on a nil receiver,
// so unguarded runs pay only a nil check.
type Abort struct {
	cause atomic.Pointer[abortCause]
}

type abortCause struct{ err error }

// Trip records err as the abort cause if no cause is set yet. It reports
// whether this call won the race. Tripping with nil is a no-op.
func (a *Abort) Trip(err error) bool {
	if a == nil || err == nil {
		return false
	}
	return a.cause.CompareAndSwap(nil, &abortCause{err: err})
}

// Err returns the abort cause, or nil when the flag has not been tripped.
func (a *Abort) Err() error {
	if a == nil {
		return nil
	}
	c := a.cause.Load()
	if c == nil {
		return nil
	}
	return c.err
}
