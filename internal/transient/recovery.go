package transient

// Convergence-recovery ladder: what the engines do when a time point refuses
// to solve even after step shrinking has hit the floor. The ladder mirrors
// the dcop continuation philosophy at a single transient point:
//
//  1. (in the step loop) shrink the step — the cheap, usual fix;
//  2. escalate Newton damping with a doubled iteration budget — rescues
//     points where the undamped update overshoots a sharp nonlinearity;
//  3. ramp a large artificial conductance from every node to ground down to
//     zero (transient gmin stepping) — continuation for genuinely stiff or
//     near-singular points.
//
// Every successful climb is counted in Stats.Recoveries and recorded in the
// run's RecoveryLog; ladder failure surfaces ErrStepTooSmall with the last
// cause attached.

import (
	"fmt"
	"sync"

	"wavepipe/internal/checkpoint"
	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/newton"
	"wavepipe/internal/trace"
)

// emitRecovery publishes one KindRecovery event, paired 1:1 with the
// Stats.Recoveries increments so traces reconcile exactly.
func (ps *PointSolver) emitRecovery(t float64, detail string) {
	if tr := ps.WS.Trace; tr.Active() {
		tr.Emit(trace.Event{Kind: trace.KindRecovery, T: t, Worker: ps.WS.Worker, Detail: detail})
	}
}

// Recovery event kinds.
const (
	RecoveryDamping        = "damping"         // escalated-damping rung succeeded
	RecoveryGminRamp       = "gmin-ramp"       // transient gmin ramp succeeded
	RecoverySerialFallback = "serial-fallback" // wavepipe degraded to serial integration
)

// RecoveryEvent records one robustness action taken during a run; it is
// checkpoint's type, so a checkpoint carries the log as it is.
type RecoveryEvent = checkpoint.RecoveryEvent

// RecoveryLog collects the recovery events of one run. All methods are safe
// for concurrent use and are no-ops on a nil receiver.
type RecoveryLog struct {
	mu     sync.Mutex
	events []RecoveryEvent
}

// Note appends an event.
func (l *RecoveryLog) Note(t float64, kind, detail string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, RecoveryEvent{T: t, Kind: kind, Detail: detail})
	l.mu.Unlock()
}

// Events returns a copy of the recorded events.
func (l *RecoveryLog) Events() []RecoveryEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]RecoveryEvent, len(l.events))
	copy(out, l.events)
	return out
}

// Len returns the number of recorded events.
func (l *RecoveryLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Count returns how many events of the given kind were recorded.
func (l *RecoveryLog) Count(kind string) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// RecoverAt climbs the convergence-recovery ladder at a time point the
// regular solve (and step shrinking) could not crack: escalating damping
// first, then a transient gmin ramp. On success the converged point is
// returned exactly as SolveAt would return it — it still faces the caller's
// LTE acceptance test. Rungs are announced to the fault injector (SetStage)
// so tests can force the ladder to a chosen depth.
func (ps *PointSolver) RecoverAt(hist *integrate.History, tNew float64, log *RecoveryLog) (*integrate.Point, integrate.Coeffs, error) {
	in := ps.WS.Faults
	defer in.SetStage(faults.StageNormal)
	// Rung 1: escalating damping. Tighter clamps trade convergence speed
	// for stability, so the iteration budget doubles.
	in.SetStage(faults.StageDamping)
	damp := ps.Newton.Damping
	if damp <= 0 {
		damp = newton.DefaultOptions().Damping
	}
	maxIter := ps.Newton.MaxIter
	if maxIter <= 0 {
		maxIter = newton.DefaultOptions().MaxIter
	}
	var lastErr error
	for _, scale := range []float64{0.2, 0.04} {
		opts := ps.Newton
		opts.Damping = damp * scale
		opts.MaxIter = 2 * maxIter
		pt, co, err := ps.solveAtWith(hist, tNew, nil, opts, 0)
		if err == nil {
			ps.Stats.Recoveries++
			detail := fmt.Sprintf("damping %.3g", opts.Damping)
			log.Note(tNew, RecoveryDamping, detail)
			ps.emitRecovery(tNew, RecoveryDamping+" "+detail)
			return pt, co, nil
		}
		lastErr = err
	}

	// Rung 2: transient gmin ramp.
	in.SetStage(faults.StageGmin)
	pt, co, err := ps.gminRampAt(hist, tNew)
	if err == nil {
		ps.Stats.Recoveries++
		log.Note(tNew, RecoveryGminRamp, "")
		ps.emitRecovery(tNew, RecoveryGminRamp)
		return pt, co, nil
	}
	if lastErr == nil {
		lastErr = err
	}
	return nil, co, fmt.Errorf("recovery ladder exhausted (gmin ramp: %w; damping: %w)", err, lastErr)
}

// gminRampAt is dcop's gmin stepping transplanted to one transient point:
// solve with a large conductance from every node to ground, relax it
// geometrically to zero warm-starting each rung from the previous solution,
// and finish with a clean solve of the true system.
func (ps *PointSolver) gminRampAt(hist *integrate.History, tNew float64) (*integrate.Point, integrate.Coeffs, error) {
	guess := make([]float64, ps.WS.Sys.N)
	ps.pred.extrapolate(hist, tNew, guess, pointX)
	g := 1e-2
	const decades = 8
	for i := 0; i < decades; i++ {
		pt, co, err := ps.solveAtWith(hist, tNew, guess, ps.Newton, g)
		if err != nil {
			return nil, co, fmt.Errorf("gmin ramp at g=%.0e: %w", g, err)
		}
		copy(guess, pt.X)
		ps.PutPoint(pt) // rung points are never published
		g /= 10
	}
	return ps.solveAtWith(hist, tNew, guess, ps.Newton, 0)
}
