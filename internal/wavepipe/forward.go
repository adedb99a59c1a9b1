package wavepipe

import (
	"errors"

	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
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
	depth := e.warmDepth()
	warmTask := func(w int, t float64, res *pointResult, warm *[]float64) roundTask {
		return roundTask{w: w, t: t, res: res, f: func() {
			// The predicted history mirrors the spacing of the true one
			// (including the backward point when present) so the speculative
			// assemblies' Alpha0 match and ResumeAt can reuse them. Each
			// warm-start task predicts with its own solver's pooled prediction
			// ring, so the concurrent phase-A tasks never share scratch.
			ps := e.solvers[w]
			ph := hist.Clone()
			if doBack1 {
				ph.Add(ps.PredictPoint(hist, t1-delta))
			}
			ph.Add(ps.PredictPoint(hist, t1))
			*warm = ps.WarmStart(ph, t, depth)
		}}
	}
	tasksA := []roundTask{e.solveTask(0, hist, t1, &main)}
	if doBack1 {
		tasksA = append(tasksA, e.solveTask(2, hist, t1-delta, &back1))
	}
	if doForward {
		tasksA = append(tasksA, warmTask(1, t2, &warmFwdRes, &warmFwd))
	}
	if doBack2 {
		tasksA = append(tasksA, warmTask(3, t2-delta, &warmB2Res, &warmB2))
	}
	e.runRound(t1, tasksA...)
	e.noteMainIters(e.solvers[0].LastIters)

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
		resumeTask := func(w int, t float64, res *pointResult, warm []float64) roundTask {
			return roundTask{w: w, t: t, res: res, f: func() {
				pt, co, err := e.solvers[w].ResumeAt(trueHist, t, warm)
				*res = pointResult{pt: pt, co: co, err: err}
			}}
		}
		tasksB := []roundTask{resumeTask(1, t2, &fwd, warmFwd)}
		if doBack2 {
			tasksB = append(tasksB, resumeTask(3, t2-delta, &back2, warmB2))
		}
		e.runRound(t2, tasksB...)
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
