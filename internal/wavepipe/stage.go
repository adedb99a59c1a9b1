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
// sits under, h being the stage's main step.
const deltaRatio = 0.2

// stagePlan is the shape of one stage, the scheme as data: which points ride
// along with the main point and which solver owns each.
//
//	           main   backward under main   forward   backward under forward
//	flush      0      —                     —         —
//	Backward   1      0                     —         —
//	Forward    0      —                     1         —
//	Combined   0      2                     1         3
//
// The assignment is part of the result, not a free choice: a solver's
// limiting state and warm factorization follow what it solved last, so moving
// a role to another solver moves the waveform in the last bits. Backward
// numbers its points in time order (main last), the forward schemes in the
// order they were added to the engine.
type stagePlan struct {
	// flush marks the single-point stage that refills the pipeline after a
	// breakpoint or a degradation: its main failure climbs the recovery
	// ladder instead of falling back to — itself.
	flush bool
	main  target
	hitBp bool // main lands on the controller's limit
	// back is the backward point main−δ. At δ = 0.2·h it always clears the
	// stage's base point, so it is planned whenever the scheme has one.
	back target
	// fwd is the speculated point after main, one step of the same size on
	// (no growth), never across a breakpoint; fwdBack the backward point
	// under it.
	fwd       target
	fwdHitsBp bool
	fwdBack   target
}

// planStage expands scheme × flush state into the stage that takes the run
// from t to tMain (on the limit when hitBp).
func planStage(scheme Scheme, flush bool, t, tMain float64, hitBp bool, limit float64) stagePlan {
	p := stagePlan{flush: flush, main: target{0, tMain}, hitBp: hitBp, back: noTarget, fwd: noTarget, fwdBack: noTarget}
	if flush {
		return p
	}
	h0 := tMain - t
	delta := deltaRatio * h0
	switch scheme {
	case SchemeBackward:
		p.main.solver, p.back = 1, target{0, tMain - delta}
		return p
	case SchemeCombined:
		p.back = target{2, tMain - delta}
	}

	t2, fwdHitsBp := transient.LandOn(limit, tMain+h0, h0)
	if hitBp || (fwdHitsBp && t2-tMain < 0.1*h0) {
		return p
	}
	p.fwd, p.fwdHitsBp = target{1, t2}, fwdHitsBp
	// A forward step cut short by the limit can leave t2−δ crowding main:
	// the forward point then goes alone.
	if scheme == SchemeCombined && t2-delta > tMain+0.05*h0 {
		p.fwdBack = target{3, t2 - delta}
	}
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
		// The predicted history mirrors the spacing of the true one (the
		// backward point under main included) so the speculative assembly's
		// Alpha0 matches and ResumeAt can reuse it. Each solver predicts into
		// its own history with its own prediction ring, so concurrent warm-ups
		// share no scratch. A panic leaves warm nil and the resume solves cold.
		e.warm[k.solver] = nil
		ph := &e.pred[k.solver]
		ph.CopyFrom(e.from)
		if b := e.p.back; b.planned() {
			ph.Add(ps.PredictPoint(e.from, b.t))
		}
		ph.Add(ps.PredictPoint(e.from, e.p.main.t))
		e.warm[k.solver] = ps.WarmStart(ph, k.t, e.depth)
	case jobResume:
		res.pt, res.co, res.err = ps.ResumeAt(e.from, k.t, e.warm[k.solver])
	}
}

// passes reports whether a backward candidate may be published: it converged
// and meets the LTE bar against the history it was solved from (right after
// a breakpoint there is no history to measure against, as for the main
// point). Backward points are optional accelerators: a failure only costs
// the speed-up they would have bought.
func (e *engine) passes(hist *integrate.History, res *pointResult) bool {
	return res.err == nil && (e.s.AfterBreak || e.lte(hist, res) <= 1)
}

// publishBack accepts the backward point tg when it passes against hist, and
// counts it discarded when it does not.
func (e *engine) publishBack(hist *integrate.History, tg target) {
	if !tg.planned() {
		return
	}
	if r := &e.res[tg.solver]; e.passes(hist, r) {
		e.accept(r.pt, tg.solver)
	} else {
		e.noteDiscards(tg.t, 1)
		e.recycle(tg)
	}
}

// stage runs one pipeline stage:
//
//	round A — the main point t1 = t+h and the backward point t1−δ, both from
//	          the accepted history; meanwhile the forward solvers pre-iterate
//	          t2 = t1+h (and t2−δ) against a polynomially *predicted* t1
//	round B — the forward solvers finish t2 (and t2−δ) from the exact
//	          history, warm-started from round A
//
// then validates and publishes in time order. Round B starts the moment the
// true t1 point exists, before its LTE check. Accuracy is protected by
// re-solving the forward points against the exact history and LTE-checking
// every accepted point against the history it was solved from.
func (e *engine) stage(flush bool) error {
	s := e.s
	hist := s.Hist
	tMain, hitBp := s.Plan()
	e.p = planStage(e.opts.Scheme, flush, s.T, tMain, hitBp, s.Limit())
	p := &e.p
	e.depth = e.warmDepth()

	tasks := queue(e.tasks[:0], p.back, jobSolve)
	tasks = append(tasks, roundTask{p.main, jobSolve})
	tasks = queue(queue(tasks, p.fwd, jobWarm), p.fwdBack, jobWarm)
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
		if !p.flush {
			e.shrinkAfterFailure()
			return nil
		}
		// Step shrinking first; at the floor, the flush stage is the
		// pipeline's last line of defense, so it climbs the same
		// convergence-recovery ladder as the serial engine.
		pt, co, err := s.Failed()
		if pt == nil {
			return err
		}
		*main = pointResult{pt: pt, co: co}
		p.main.t, p.hitBp = s.Plan() // where Failed placed the ladder's point: one floor step on
		e.critNanos += e.noteWorker(p.main.t, 0)
	}

	// Round B, speculative with respect to the LTE checks below.
	trueHist := &e.trueHist
	spec := 0 // forward-side points solved
	if p.fwd.planned() {
		trueHist.CopyFrom(hist)
		if b := p.back; b.planned() && e.res[b.solver].err == nil {
			trueHist.Add(e.res[b.solver].pt)
		}
		trueHist.Add(main.pt)
		tasks = queue(queue(e.tasks[:0], p.fwd, jobResume), p.fwdBack, jobResume)
		e.runRound(p.fwd.t, trueHist, tasks)
		spec = len(tasks)
	}

	// Validation and publication, ascending in time. The stage is built on
	// the main point: if it goes, everything goes.
	mainNorm := e.lte(hist, main)
	if s.TooCoarse(mainNorm, main.co.H0) {
		e.s.Reject(p.main.t, main.co, mainNorm)
		e.noteDiscards(p.main.t, p.backs()+spec)
		for _, tg := range [...]target{p.main, p.back, p.fwd, p.fwdBack} {
			e.recycle(tg)
		}
		return nil
	}
	e.publishBack(hist, p.back)
	e.accept(main.pt, p.main.solver)
	if p.flush {
		e.noteMainIters(e.solvers[p.main.solver].LastIters)
	}
	if e.landed(p.hitBp, main.co.H0) {
		return nil
	}
	if p.flush { // one stage of the refill, or of the fallback window, done
		if e.warmup > 0 {
			e.warmup--
		} else {
			e.degraded--
			e.degradedStages++
		}
	}

	// The forward side. Speculative points pass the same LTE bar as
	// everything else; a stricter bar was tried and bought no measurable
	// accuracy while discarding ~15% more points (see EXPERIMENTS.md). A
	// backward point accepted here sits between the main and the forward
	// point; history stays ascending either way.
	last, lastNorm := main, mainNorm // the anchor the next step is sized from
	if p.fwd.planned() {
		e.publishBack(trueHist, p.fwdBack)
		fwd := &e.res[p.fwd.solver]
		if fwd.err != nil {
			e.noteDiscards(p.fwd.t, 1)
		} else if norm := e.lte(trueHist, fwd); norm > 1 {
			// The forward point's LTE feedback still guides the next step.
			e.noteDiscards(p.fwd.t, 1)
			e.recycle(p.fwd)
			e.s.Reject(p.fwd.t, fwd.co, norm)
			return nil
		} else {
			e.accept(fwd.pt, p.fwd.solver)
			if e.landed(p.fwdHitsBp, fwd.co.H0) {
				return nil
			}
			last, lastNorm = fwd, norm
		}
	}
	e.nextStep(last.co.H0, lastNorm, last.co.H1)
	return nil
}
