package wavepipe

import (
	"errors"
	"fmt"

	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/trace"
	"wavepipe/internal/transient"
)

// target is one point of a stage: the time it is solved at and the solver —
// and with it the trace lane and the result slot — that owns it.
type target struct {
	solver int // < 0: the stage does not compute this point
	t      float64
}

var noTarget = target{solver: -1}

// planned reports whether the stage computes the point at all.
func (tg target) planned() bool { return tg.solver >= 0 }

// deltaRatio places a backward point δ = deltaRatio·h before the point it
// sits under, h being the stage's main step. On a linear system δ is rounded
// as the steps are (transient.RoundStep), so tMain − δ is exact and the
// backward point's Alpha0 repeats whenever the stage's step does.
const deltaRatio = 0.2

// stagePlan is the shape of one stage, the scheme as data: which points ride
// along with the main point and which solver owns each.
//
//	           main   backward   forward
//	flush      0      —          —
//	Backward   1      0          —
//	Forward    0      —          1
//
// The assignment is part of the result, not a free choice: a solver's
// limiting state and warm factorization follow what it solved last, so moving
// a role to another solver moves the waveform in the last bits. Backward
// numbers its points in time order (main last).
type stagePlan struct {
	// flush marks the single-point stage that refills the pipeline after a
	// breakpoint or a degradation.
	flush bool
	main  target
	hitBp bool // main lands on the controller's limit
	// back is the backward point main−δ. At δ = 0.2·h it always clears the
	// stage's base point, so Backward plans it on every pipelined stage.
	back target
	// fwd is the speculated point after main, one step of the same size on
	// (no growth), never across a breakpoint.
	fwd       target
	fwdHitsBp bool
}

// planStage expands scheme × flush state into the stage that takes the run
// from t to tMain (on the limit when hitBp); linear is circuit.System.Linear.
func planStage(scheme Scheme, flush bool, t, tMain float64, hitBp bool, limit float64, linear bool) stagePlan {
	p := stagePlan{flush: flush, main: target{0, tMain}, hitBp: hitBp, back: noTarget, fwd: noTarget}
	if flush {
		return p
	}
	h0 := tMain - t
	if scheme == SchemeBackward {
		delta := deltaRatio * h0
		if linear {
			delta = transient.RoundStep(delta)
		}
		p.main.solver, p.back = 1, target{0, tMain - delta}
		return p
	}
	t2, fwdHitsBp := transient.LandOn(limit, tMain+h0, h0)
	if hitBp || (fwdHitsBp && t2-tMain < 0.1*h0) {
		return p
	}
	p.fwd, p.fwdHitsBp = target{1, t2}, fwdHitsBp
	return p
}

// backs is 1 when the stage has a backward point under main, else 0: the
// count a failed main point discards with it.
func (p *stagePlan) backs() int {
	if p.back.planned() {
		return 1
	}
	return 0
}

// job is what a round asks of a solver.
type job uint8

const (
	jobSolve  job = iota // solve the target from the round's history
	jobWarm              // pre-iterate the target against a predicted history
	jobResume            // finish a warm-started target against the true history
)

// roundTask is one solver's share of a round.
type roundTask struct {
	target
	job job
}

// queue appends a task for tg, if the stage computes it at all.
func queue(tasks []roundTask, tg target, j job) []roundTask {
	if !tg.planned() {
		return tasks
	}
	return append(tasks, roundTask{tg, j})
}

// runRound executes one parallel round of a stage on the stage gang and
// returns with it on the books: concurrently when host and budget cover
// every task (sched.Pool.Covers, asked each round), else one task after
// another — same results either way. A panic in a task (real or injected)
// has surfaced as a typed error in its result slot (see runTask) and
// schedules the serial-fallback window. The slowest participating solver's
// modeled compute time joins the run's critical path, and every
// participant's is published as a worker-occupancy span at time t.
func (e *engine) runRound(t float64, hist *integrate.History, tasks []roundTask) {
	// tasks is the head of e.tasks, where runTask finds its share.
	e.from = hist
	if !e.gang.Round(len(tasks), e.taskFn) {
		e.pipelineSerialized = true
	}
	var crit int64
	for _, k := range tasks {
		if errors.Is(e.res[k.solver].err, faults.ErrWorkerPanic) {
			e.workerPanics++
			e.degrade("worker panic")
		}
		crit = max(crit, e.noteWorker(t, k.solver))
	}
	e.critNanos += crit
}

// noteWorker publishes solver w's modeled compute time in the round just
// joined as a worker-occupancy span at time t, and returns it.
func (e *engine) noteWorker(t float64, w int) int64 {
	d := e.solvers[w].LastNanos
	if e.tr.Active() {
		e.tr.Emit(trace.Event{
			Kind: trace.KindWorker, T: t, Worker: int16(w), Stage: e.s.Stage, Dur: d,
		})
	}
	return d
}

// runTask is task i of the round in flight, run by one member of the stage
// gang. It touches only its own solver, result slot and predicted history
// plus the immutable stage plan and history. The panic fence turns a panic
// into a typed error on the slot instead of killing the process — a bad
// device model must cost at most the stage, never the run.
func (e *engine) runTask(i int) {
	k := e.tasks[i]
	ps, res := e.solvers[k.solver], &e.res[k.solver]
	*res = pointResult{}
	defer func() {
		if r := recover(); r != nil {
			res.err = &faults.SimError{
				Phase: "wavepipe", Time: k.t, Node: -1,
				Cause: fmt.Errorf("%w: %v", faults.ErrWorkerPanic, r),
			}
		}
	}()
	if cls, ok := e.flt.At(faults.SiteWorker, k.t); ok && cls == faults.WorkerPanic {
		panic(fmt.Sprintf("injected worker panic at t=%g", k.t))
	}
	switch k.job {
	case jobSolve:
		res.pt, res.co, res.err = ps.SolveAt(e.from, k.t, nil)
	case jobWarm:
		// The predicted history mirrors the spacing of the true one so the
		// speculative assembly's Alpha0 matches and ResumeAt can reuse it. A
		// panic leaves warm nil and the resume solves cold.
		e.warm = nil
		e.pred.CopyFrom(e.from)
		e.pred.Add(ps.PredictPoint(e.from, e.p.main.t))
		e.warm = ps.WarmStart(&e.pred, k.t, e.depth)
	case jobResume:
		res.pt, res.co, res.err = ps.ResumeAt(e.from, k.t, e.warm)
	}
}

// publishBack accepts the backward point tg when it converged and passes
// the LTE test against hist, the history it was solved from, and counts it
// discarded when it does not. Backward points are optional accelerators: a
// failure only costs the speed-up they would have bought.
func (e *engine) publishBack(hist *integrate.History, tg target) {
	if !tg.planned() {
		return
	}
	if r := &e.res[tg.solver]; r.err == nil {
		if norm := e.s.Norm(hist, r.pt, r.co); !e.s.TooCoarse(norm, r.co.H0) {
			e.accept(r.pt, tg.solver, norm)
			return
		}
	}
	e.noteDiscards(tg.t, 1)
	e.recycle(tg)
}

// stage runs one pipeline stage:
//
//	round A — the main point t1 = t+h beside either the backward point t1−δ
//	          (Backward), solved from the accepted history, or a pre-iteration
//	          of the forward point t2 = t1+h against a polynomially
//	          *predicted* t1 (Forward)
//	round B — Forward only: the forward solver finishes t2 from the exact
//	          history, warm-started from round A
//
// then validates and publishes in time order. Round B starts the moment the
// true t1 point exists, before its LTE check. Accuracy is protected by
// re-solving the forward point against the exact history and LTE-checking
// every accepted point against the history it was solved from. The step
// controller alone judges (Stepper.Norm, TooCoarse), fails (Stepper.Failed)
// and accepts (Stepper.Commit) a point, as it does for the serial engine.
//
// A stage is a flush stage while the history is short of the order+2 points
// the LTE test needs — after the start and after every restart — because
// speculative points would be accepted blind; like a hardware pipeline after
// a branch, it refills one point a stage. The degradation window (see
// degrade) is the same flush stage.
func (e *engine) stage() error {
	s := e.s
	hist := s.Hist
	refill := hist.Len() < integrate.Order+2
	tMain, hitBp := s.Plan()
	e.p = planStage(e.opts.Scheme, refill || e.degraded > 0, s.T, tMain, hitBp, s.Limit(), e.solvers[0].WS.Sys.Linear())
	p := &e.p
	e.depth = e.warmDepth()

	tasks := queue(e.tasks[:0], p.back, jobSolve)
	tasks = append(tasks, roundTask{p.main, jobSolve})
	tasks = queue(tasks, p.fwd, jobWarm)
	e.runRound(p.main.t, hist, tasks)
	main := &e.res[p.main.solver]
	// The rolling iteration count sizes the next warm-up. A pipelined main
	// solve is a sample whatever becomes of it — the forward solver iterated
	// beside it either way; a flush stage counts only the points it
	// publishes (below). Both sampling points are pinned by the waveform
	// hashes.
	if !p.flush {
		e.noteMainIters(e.solvers[p.main.solver].LastIters)
	}

	if main.err != nil {
		e.noteDiscards(p.main.t, p.backs())
		e.recycle(p.back)
		if !p.flush && errors.Is(main.err, faults.ErrWorkerPanic) {
			// A panicked main worker is not a step-size problem; the flush
			// stages its panic scheduled simply redo the point.
			return nil
		}
		e.failStreak++
		if e.failStreak >= 3 && !p.flush {
			e.degrade("repeated stage failure")
		}
		// The serial engine's response: shrink the step, and at the floor
		// climb the convergence-recovery ladder on solver 0, whose point the
		// stage then publishes alone.
		pt, co, err := s.Failed()
		if pt == nil {
			return err
		}
		tLadder, hitBp := s.Plan() // where Failed placed the ladder's point: one floor step on
		p.main, p.hitBp, p.back, p.fwd = target{0, tLadder}, hitBp, noTarget, noTarget
		main = &e.res[0]
		*main = pointResult{pt: pt, co: co}
		e.critNanos += e.noteWorker(p.main.t, 0)
	}

	// Round B, speculative with respect to the LTE checks below.
	trueHist := &e.trueHist
	spec := 0 // forward points solved
	if p.fwd.planned() {
		trueHist.CopyFrom(hist)
		trueHist.Add(main.pt)
		e.runRound(p.fwd.t, trueHist, append(e.tasks[:0], roundTask{p.fwd, jobResume}))
		spec = 1
	}

	// Validation and publication, ascending in time. The stage is built on
	// the main point: if it goes, everything goes.
	mainNorm := s.Norm(hist, main.pt, main.co)
	if s.TooCoarse(mainNorm, main.co.H0) {
		e.s.Reject(p.main.t, main.co, mainNorm)
		e.noteDiscards(p.main.t, p.backs()+spec)
		for _, tg := range [...]target{p.main, p.back, p.fwd} {
			e.recycle(tg)
		}
		return nil
	}
	e.publishBack(hist, p.back)
	e.accept(main.pt, p.main.solver, mainNorm)
	if p.flush {
		e.noteMainIters(e.solvers[p.main.solver].LastIters)
	}
	if e.land(p.hitBp, main, mainNorm) {
		return nil
	}
	if p.flush && !refill { // one stage of the fallback window done
		e.degraded--
		e.degradedStages++
	}

	// The forward point. It passes the same LTE bar as everything else; a
	// stricter bar was tried and bought no measurable accuracy while
	// discarding ~15% more points (see EXPERIMENTS.md). Accepted, it is the
	// anchor the next step is sized from instead of main; rejected, its LTE
	// feedback still guides the next step.
	if !p.fwd.planned() {
		return nil
	}
	fwd := &e.res[p.fwd.solver]
	if fwd.err != nil {
		e.noteDiscards(p.fwd.t, 1)
	} else if norm := s.Norm(trueHist, fwd.pt, fwd.co); s.TooCoarse(norm, fwd.co.H0) {
		e.noteDiscards(p.fwd.t, 1)
		e.recycle(p.fwd)
		e.s.Reject(p.fwd.t, fwd.co, norm)
	} else {
		e.accept(fwd.pt, p.fwd.solver, norm)
		e.land(p.fwdHitsBp, fwd, norm)
	}
	return nil
}
