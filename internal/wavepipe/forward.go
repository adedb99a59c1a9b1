package wavepipe

import (
	"errors"

	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/trace"
	"wavepipe/internal/transient"
)

// forwardStage runs one forward-pipelining stage (optionally combined with
// backward workers), in two parallel phases:
//
//	phase A — worker 0: main point t1 = t + h
//	          worker 2: backward point t1 − δ       (combined, ≥3 threads)
//	          worker 1: speculative Newton warm-up at t2 = t1 + h against a
//	                    polynomially *predicted* t1 point
//	phase B — worker 1: corrective solve of t2 from the exact history,
//	                    warm-started from phase A
//	          worker 3: backward point t2 − δ       (combined, 4 threads)
//
// Phase B starts the moment the true t1 point exists. Accuracy is protected
// by re-solving the forward point against the exact history and LTE-checking
// every accepted point.
func (e *engine) forwardStage(combined bool) error {
	t, hist := e.s.T, e.s.Hist
	t1, hitBp := e.s.Plan()
	h0 := t1 - t
	// The forward step is chosen conservatively (no growth) and must not
	// cross a breakpoint.
	t2, fwdHitsBp := transient.LandOn(e.s.Limit(), t1+h0, h0)
	doForward := !hitBp && !(fwdHitsBp && t2-t1 < 0.1*h0)
	fwdHitsBp = fwdHitsBp && doForward

	delta := e.opts.DeltaRatio * h0
	doBack1 := combined && e.opts.Threads >= 3
	doBack2 := combined && e.opts.Threads >= 4 && doForward && t2-delta > t1+0.05*h0

	// ---- Phase A ----
	var main, back1 pointResult
	// Warm-start tasks get their own result slots purely for panic capture:
	// a panicked warm-up leaves warmFwd/warmB2 nil and phase B falls back to
	// a cold solve.
	var warmFwdRes, warmB2Res pointResult
	var warmFwd, warmB2 []float64
	var warmFwdNanos, warmB2Nanos int64
	// The predicted history mirrors the spacing of the true one (including
	// the backward point when present) so the speculative assemblies'
	// Alpha0 match and ResumeAt can reuse them. Each warm-start task predicts
	// with its own solver's pooled prediction ring, so the concurrent phase-A
	// tasks never share scratch.
	predicted := func(ps *transient.PointSolver) *integrate.History {
		ph := hist.Clone()
		if doBack1 {
			ph.Add(ps.PredictPoint(hist, t1-delta))
		}
		ph.Add(ps.PredictPoint(hist, t1))
		return ph
	}
	tasksA := []func(){e.guardTask(t1, &main, func() {
		pt, co, err := e.solvers[0].SolveAt(hist, t1, nil)
		main = pointResult{pt: pt, co: co, err: err}
	})}
	if doBack1 {
		tasksA = append(tasksA, e.guardTask(t1-delta, &back1, func() {
			pt, co, err := e.solvers[2].SolveAt(hist, t1-delta, nil)
			back1 = pointResult{pt: pt, co: co, err: err}
		}))
	}
	depth := e.warmDepth()
	if doForward {
		tasksA = append(tasksA, e.guardTask(t2, &warmFwdRes, func() {
			warmFwd = e.solvers[1].WarmStart(predicted(e.solvers[1]), t2, depth)
			warmFwdNanos = e.solvers[1].LastNanos
		}))
	}
	if doBack2 {
		tasksA = append(tasksA, e.guardTask(t2-delta, &warmB2Res, func() {
			warmB2 = e.solvers[3].WarmStart(predicted(e.solvers[3]), t2-delta, depth)
			warmB2Nanos = e.solvers[3].LastNanos
		}))
	}
	e.runTasks(tasksA...)
	e.notePanics(&main, &back1, &warmFwdRes, &warmB2Res)
	e.critNanos += e.phaseACrit(doBack1, warmFwdNanos, warmB2Nanos)
	e.noteMainIters(e.solvers[0].LastIters)
	e.notePhaseAOccupancy(t1, doBack1, doForward, doBack2)

	if main.err != nil {
		e.noteDiscards(t1, boolCount(doBack1))
		if !errors.Is(main.err, faults.ErrWorkerPanic) {
			e.shrinkAfterFailure()
		}
		return nil
	}

	// ---- Phase B (speculative with respect to the LTE checks below) ----
	var fwd, back2 pointResult
	var trueHist *integrate.History
	if doForward {
		trueHist = hist.Clone()
		if doBack1 && back1.err == nil {
			trueHist.Add(back1.pt)
		}
		trueHist.Add(main.pt)
		tasksB := []func(){e.guardTask(t2, &fwd, func() {
			pt, co, err := e.solvers[1].ResumeAt(trueHist, t2, warmFwd)
			fwd = pointResult{pt: pt, co: co, err: err}
		})}
		if doBack2 {
			tasksB = append(tasksB, e.guardTask(t2-delta, &back2, func() {
				pt, co, err := e.solvers[3].ResumeAt(trueHist, t2-delta, warmB2)
				back2 = pointResult{pt: pt, co: co, err: err}
			}))
		}
		e.runTasks(tasksB...)
		e.notePanics(&fwd, &back2)
		e.critNanos += e.phaseBCrit(doBack2)
		e.notePhaseBOccupancy(t2, doBack2)
	}

	// ---- Validation and publication, ascending in time ----
	mainNorm := e.lteNorm(main)
	if e.s.TooCoarse(mainNorm, main.co.H0) {
		// The whole stage is built on t1: discard everything.
		e.reject(t1, main.co, mainNorm)
		e.noteDiscards(t1, boolCount(doBack1)+boolCount(doForward)+boolCount(doBack2))
		return nil
	}
	if doBack1 {
		if back1.err == nil && (e.s.AfterBreak || e.lteNorm(back1) <= 1) {
			e.accept(back1.pt)
		} else {
			e.noteDiscards(t1-delta, 1)
		}
	}
	e.accept(main.pt)

	if e.landed(hitBp, h0) {
		return nil
	}
	if !doForward {
		e.nextStep(h0, mainNorm, main.co.H1)
		return nil
	}

	// Speculative points pass the same LTE bar as everything else; a
	// stricter bar was tried and bought no measurable accuracy while
	// discarding ~15% more points (see EXPERIMENTS.md).
	const specBar = 1.0
	lteAgainst := func(res pointResult) float64 {
		return e.lteNormAgainst(trueHist, res)
	}
	if doBack2 {
		if back2.err == nil && lteAgainst(back2) <= specBar {
			e.accept(back2.pt)
		} else {
			e.noteDiscards(t2-delta, 1)
		}
	}
	if fwd.err == nil {
		if fwdNorm := lteAgainst(fwd); fwdNorm <= specBar {
			// back2 may have been accepted between the main point and the
			// forward point; history stays ascending either way.
			e.accept(fwd.pt)
			if !e.landed(fwdHitsBp, fwd.co.H0) {
				e.nextStep(fwd.co.H0, fwdNorm, fwd.co.H1)
			}
			return nil
		}
		// The forward point's LTE feedback still guides the next step.
		fwdNorm := lteAgainst(fwd)
		e.noteDiscards(t2, 1)
		e.reject(t2, fwd.co, fwdNorm)
		return nil
	}
	e.noteDiscards(t2, 1)
	e.nextStep(h0, mainNorm, main.co.H1)
	return nil
}

func boolCount(b bool) int {
	if b {
		return 1
	}
	return 0
}

// notePhaseAOccupancy publishes worker-occupancy spans for the forward
// stage's first parallel round (main solve, optional backward point, the
// speculative warm starts), matching the worker→solver assignment above.
func (e *engine) notePhaseAOccupancy(t float64, back1, fwd, back2 bool) {
	if !e.tr.Active() {
		return
	}
	emit := func(w int) {
		e.tr.Emit(trace.Event{
			Kind: trace.KindWorker, T: t, Worker: int16(w),
			Stage: e.s.Stage, Dur: e.solvers[w].LastNanos,
		})
	}
	emit(0)
	if back1 {
		emit(2)
	}
	if fwd {
		emit(1)
	}
	if back2 {
		emit(3)
	}
}

// notePhaseBOccupancy publishes the second round's spans: the corrective
// forward solve and the optional backward point under it.
func (e *engine) notePhaseBOccupancy(t float64, back2 bool) {
	if !e.tr.Active() {
		return
	}
	e.tr.Emit(trace.Event{
		Kind: trace.KindWorker, T: t, Worker: 1,
		Stage: e.s.Stage, Dur: e.solvers[1].LastNanos,
	})
	if back2 {
		e.tr.Emit(trace.Event{
			Kind: trace.KindWorker, T: t, Worker: 3,
			Stage: e.s.Stage, Dur: e.solvers[3].LastNanos,
		})
	}
}

// phaseACrit returns the critical-path time of the stage's first parallel
// round: the main point, the optional backward point and the speculative
// warm starts all run concurrently.
func (e *engine) phaseACrit(withBack1 bool, warmNanos ...int64) int64 {
	crit := e.solvers[0].LastNanos
	if withBack1 && e.solvers[2].LastNanos > crit {
		crit = e.solvers[2].LastNanos
	}
	for _, w := range warmNanos {
		if w > crit {
			crit = w
		}
	}
	return crit
}

// phaseBCrit returns the critical-path time of the stage's second parallel
// round: the corrective forward solve and the optional backward point under
// it.
func (e *engine) phaseBCrit(withBack2 bool) int64 {
	crit := e.solvers[1].LastNanos
	if withBack2 && e.solvers[3].LastNanos > crit {
		crit = e.solvers[3].LastNanos
	}
	return crit
}
