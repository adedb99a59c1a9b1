package faults

import (
	"errors"
	"fmt"
)

// Sentinel errors — the failure classes callers branch on with errors.Is.
// Every solver-stack failure wraps exactly one of these, replacing the old
// opaque fmt.Errorf strings so engines, tests and the CLI can react to the
// failure class instead of parsing messages.
var (
	// ErrNoConvergence: a Newton iteration exhausted its budget.
	ErrNoConvergence = errors.New("newton: no convergence")
	// ErrSingular: the sparse LU factorization met a structurally or
	// numerically singular matrix.
	ErrSingular = errors.New("sparse: singular matrix")
	// ErrNonFinite: a NaN or Inf appeared in an iterate, residual or
	// device stamp.
	ErrNonFinite = errors.New("solver: non-finite value")
	// ErrStepTooSmall: adaptive step control shrank the time step to the
	// floor and the recovery ladder could not rescue the point.
	ErrStepTooSmall = errors.New("transient: time step too small")
	// ErrWorkerPanic: a pipeline stage worker panicked; the panic was
	// recovered and converted to this error.
	ErrWorkerPanic = errors.New("wavepipe: worker panic")
	// ErrCanceled: the run observed context cancellation and stopped at a
	// time-point boundary; the partial result up to that point is valid.
	ErrCanceled = errors.New("transient: run canceled")
	// ErrDeadlineExceeded: the run's context passed its deadline and the run
	// stopped at a time-point boundary; the partial result and the final
	// checkpoint up to the last accepted point are valid.
	ErrDeadlineExceeded = errors.New("transient: wall-clock deadline exceeded")
	// ErrStalled: the watchdog observed no accepted step within its multiple
	// of the trailing step-time average and aborted the run.
	ErrStalled = errors.New("transient: run stalled")
	// ErrBadCheckpoint: a checkpoint file is truncated, corrupted, of an
	// unsupported version, or belongs to a different circuit.
	ErrBadCheckpoint = errors.New("checkpoint: invalid checkpoint")
)

// SimError attaches simulation context — which phase, at what time, on which
// unknown — to a failure cause. The cause chain always reaches one of the
// sentinel errors above, so errors.Is classifies a SimError by failure class
// and errors.As recovers the context.
type SimError struct {
	Phase string  // "dcop", "newton", "transient", "wavepipe"
	Time  float64 // simulation time of the failing solve (0 for DC)
	Node  int     // offending unknown index, -1 when not attributable
	Cause error
}

// Error renders the context followed by the cause.
func (e *SimError) Error() string {
	if e.Node >= 0 {
		return fmt.Sprintf("%s: t=%g: unknown %d: %v", e.Phase, e.Time, e.Node, e.Cause)
	}
	return fmt.Sprintf("%s: t=%g: %v", e.Phase, e.Time, e.Cause)
}

// Unwrap exposes the cause chain to errors.Is / errors.As.
func (e *SimError) Unwrap() error { return e.Cause }

// Wrap attaches phase/time/node context to err (nil stays nil).
func Wrap(phase string, t float64, node int, err error) error {
	if err == nil {
		return nil
	}
	return &SimError{Phase: phase, Time: t, Node: node, Cause: err}
}
