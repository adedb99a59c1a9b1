// Package wavepipe implements the paper's contribution: waveform-pipelined
// parallel transient simulation. Multiple adjacent time points are computed
// concurrently by worker goroutines in a way resembling hardware pipelining,
// without relaxation — every accepted point satisfies the same implicit
// integration formula, Newton tolerance and LTE test as the serial engine.
//
// Two embodiments are provided, plus their combination:
//
//   - Backward pipelining (SchemeBackward): while the main worker computes
//     the regular next point t+h, a second worker computes the backward
//     point t+h−δ, δ = 0.2·h. Both depend only on already-known history,
//     so they run fully in parallel. The densely spaced trailing
//     points shrink the variable-step Gear-2 LTE constant and refresh the
//     derivative estimate, allowing a larger next step — the pipeline
//     advances simulated time faster than one serial step per solve.
//
//   - Forward pipelining (SchemeForward): a second worker speculatively
//     iterates on the point after next (t+2h) using a polynomial
//     *prediction* of the not-yet-converged t+h solution as history. Once
//     the true t+h point is published, the worker swaps in the exact
//     history and finishes Newton from its warm iterate. Accuracy is
//     unaffected — the final iterations always use the true history and the
//     point is still LTE-checked — but most of its Newton work overlapped
//     with the predecessor's.
//
//   - SchemeCombined layers a backward worker under the main point and
//     under the forward point as well.
//
// A scheme is its stage: Backward and Forward solve two points at once,
// Combined four (see Width and planStage).
package wavepipe

import (
	"fmt"
	"time"

	"wavepipe/internal/checkpoint"
	"wavepipe/internal/circuit"
	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/num"
	"wavepipe/internal/sched"
	"wavepipe/internal/trace"
	"wavepipe/internal/transient"
)

// Scheme selects the pipelining embodiment.
type Scheme int

// Available pipelining schemes.
const (
	SchemeBackward Scheme = iota
	SchemeForward
	SchemeCombined
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case SchemeBackward:
		return "backward"
	case SchemeForward:
		return "forward"
	case SchemeCombined:
		return "combined"
	default:
		return "unknown"
	}
}

// Options configures a WavePipe run.
type Options struct {
	// Base carries the underlying transient configuration (window, method,
	// tolerances). Method must be Gear2 or Trapezoidal for second-order
	// pipelining; Gear2 (the default) is what the paper analyses.
	Base transient.Options
	// Scheme selects backward, forward or combined pipelining, and with it
	// the stage: how many points a stage solves and which (see Width).
	Scheme Scheme
}

// maxWidth is the widest stage: Combined's main and forward point with a
// backward point under each.
const maxWidth = 4

// Width is the number of points a stage of the scheme solves at once — 2 for
// Backward and Forward, 4 for Combined. It is the engine's solver count and
// the width of its stage gang, and what a caller budgeting cores around it
// (the window coordinator, the service) must count.
func Width(scheme Scheme) int {
	if scheme == SchemeCombined {
		return maxWidth
	}
	return 2
}

// Run executes a WavePipe transient analysis and returns a result of the
// same shape as the serial engine's.
func Run(sys *circuit.System, opts Options) (*transient.Result, error) {
	if opts.Base.TStop <= 0 {
		return nil, fmt.Errorf("wavepipe: TStop must be positive")
	}
	e := newEngine(sys, opts)
	defer e.close()
	return e.run(sys)
}

// newEngine builds the run's solvers — one per pipeline slot — and its
// stage gang.
func newEngine(sys *circuit.System, opts Options) *engine {
	base := opts.Base.WithDefaults()
	e := &engine{opts: opts, base: base, ctrl: base.Control, flt: base.Faults, tr: base.Trace}
	e.taskFn = e.runTask
	// The stage gang under a budget: the coordinator leads it, so a gang of
	// width k occupies k cores and the budget caps the width.
	width := Width(opts.Scheme)
	gang := width
	if base.CoreBudget > 0 {
		gang = min(gang, base.CoreBudget)
	}
	e.gang = sched.NewPool(gang)
	for i := 0; i < width; i++ {
		ps := transient.NewPointSolver(sys, base.Method, base.Newton, base.Gmin)
		ps.Attach(&e.base, int16(i))
		e.solvers = append(e.solvers, ps)
	}
	return e
}

// close stops the run's stage gang.
func (e *engine) close() { e.gang.Close() }

// start builds the step controller and establishes the first point. The
// controller is built on solver 0: it solves every flush stage — the refill
// after a breakpoint, the fallback after a failure — and climbs the recovery
// ladder, so its workspace holds the limiting and factorization state a
// resume restores. Which solver owns the main point of a pipelined stage is
// the plan's business (see planStage). Coordinator events carry no lane.
func (e *engine) start(sys *circuit.System) (err error) {
	e.s = transient.NewStepper(sys, e.solvers[0], &e.base, "wavepipe")
	e.s.Worker = -1
	if e.warmup, err = e.s.Start(); err != nil {
		return err
	}
	// The first points come from no solver's pool; solver 0 takes them.
	e.owners = make([]int, e.s.Hist.Len(), integrate.HistoryDepth+1)
	if e.base.Resume != nil {
		// Solver 0 received the limiting/factorization state; the others
		// adopt the limiting state. Pipelined resume is equivalence-
		// tolerance, not bit-identical: only the serial engine's solve order
		// is reproducible.
		for _, ps := range e.solvers[1:] {
			ps.WS.CopyStateFrom(e.solvers[0].WS)
		}
	}
	return nil
}

// run advances the step controller stage by stage to the horizon.
func (e *engine) run(sys *circuit.System) (result *transient.Result, runErr error) {
	err := e.start(sys)
	defer e.s.Flush(e.capture, &runErr)
	if err != nil {
		return nil, err
	}
	for !e.s.Done() {
		if err := e.s.Poll(e.capture); err != nil {
			return e.result(), err
		}
		e.s.Stage++
		// Pipeline flush: after a waveform discontinuity the truncation-error
		// checks have no valid history, so speculative points would be accepted
		// blind. Like a hardware pipeline after a branch, refill one point per
		// stage until LTE control re-engages. The same flush stage is the
		// degradation fallback after worker panics or repeated stage failures
		// (see degrade).
		if err := e.stage(e.warmup > 0 || e.degraded > 0); err != nil {
			return e.result(), err
		}
	}
	return e.result(), nil
}

// totals sums the per-solver work counters and overlays what only the
// coordinator knows. The summed per-solver CriticalNanos is total work; the
// run's is the pipeline critical path accumulated per stage.
func (e *engine) totals() transient.Stats {
	stats := transient.Stats{}
	for _, ps := range e.solvers {
		ps.HarvestSolverStats()
		stats.Add(ps.Stats)
	}
	stats.Discarded = e.discarded
	stats.Stages = int(e.s.Stage)
	stats.WorkerPanics = e.workerPanics
	stats.DegradedStages = e.degradedStages
	stats.CriticalNanos = e.critNanos
	stats.CoreBudget = e.base.CoreBudget
	stats.PipelineWorkers = len(e.solvers)
	stats.IntraWorkers = 1
	stats.PipelineSerialized = e.pipelineSerialized
	stats.Add(e.s.Base)
	return stats
}

// capture snapshots the engine at a committed stage boundary.
func (e *engine) capture() *checkpoint.State { return e.s.Capture(e.totals(), e.warmup, 1) }

// result assembles the (possibly partial) run outcome from the engine state.
func (e *engine) result() *transient.Result { return e.s.Result(e.totals()) }

// engine holds the per-run coordinator state. A round's tasks only touch
// their own PointSolver, result slot and predicted history plus the
// immutable plan and history of the stage.
type engine struct {
	opts Options
	base transient.Options
	ctrl integrate.Control

	solvers []*transient.PointSolver
	// s is the run's step controller (history, waveform, step position,
	// breakpoints, checkpoint cadence), shared with the serial engine.
	s      *transient.Stepper
	warmup int // flush stages remaining after a breakpoint

	// Scheduling state: the stage gang the rounds run on (as wide as the
	// pipeline, or as the core budget let it be) and whether any round had to
	// serialize.
	gang               *sched.Pool
	pipelineSerialized bool

	// Robustness state: the run's fault harness, the flush stages left in the
	// serial-fallback window, and the consecutive-failure streak that
	// triggers it.
	flt        *faults.Injector
	degraded   int
	failStreak int

	// tr is the run's event stream (nil when untraced; every emission site
	// is nil-safe). Counter-bearing emissions go through the step controller
	// and the noteDiscards / degrade helpers so the trace can never diverge
	// from the Stats counters.
	tr *trace.Tracer

	discarded      int
	workerPanics   int
	degradedStages int
	critNanos      int64
	emaIters       float64 // rolling main-solve Newton iteration count

	// Coordinator-side scratch: the LTE checks and step selection run on the
	// coordinator between parallel phases, so one set of buffers makes the
	// per-stage bookkeeping allocation-free. trueHist is round B's history and
	// pred[k] solver k's predicted one (see stage.go), refilled each stage.
	ltePts   []*integrate.Point
	tailBuf  []*integrate.Point
	lteScr   integrate.LTEScratch
	trueHist integrate.History
	pred     [maxWidth]integrate.History

	// owners[i] is the solver whose pool s.Hist.At(i) came from and goes
	// back to, so no pool runs dry while another fills up.
	owners []int

	// The stage in flight (see stage.go). res and warm are indexed by solver:
	// a solver has at most one point per stage, so its slot is its own.
	p      stagePlan
	res    [maxWidth]pointResult
	warm   [maxWidth][]float64
	depth  int                 // the stage's speculative iteration budget
	from   *integrate.History  // what the round in flight solves from
	tasks  [maxWidth]roundTask // the round in flight, task i for gang member i
	taskFn func(int)           // e.runTask, bound once
}

// warmDepth returns the speculative iteration budget for the forward
// worker: the rolling main-solve iteration count, mirroring a real parallel
// machine where the speculative worker iterates until the true predecessor
// point is published. The warm start's trailing assembly+factorization costs
// roughly one more iteration, keeping the speculative task no heavier than
// the concurrent main solve.
func (e *engine) warmDepth() int {
	d := int(e.emaIters + 0.5)
	if d < 1 {
		d = 1
	}
	if d > 10 {
		d = 10
	}
	return d
}

// noteMainIters feeds the rolling iteration average.
func (e *engine) noteMainIters(iters int) {
	if e.emaIters == 0 {
		e.emaIters = float64(iters)
		return
	}
	e.emaIters += 0.2 * (float64(iters) - e.emaIters)
}

// pointResult carries one worker's outcome back to the coordinator.
type pointResult struct {
	pt  *integrate.Point
	co  integrate.Coeffs
	err error
}

// lte is the truncation-error norm of a candidate against the history it was
// solved from, estimating the derivative from spaced points (see
// History.SpacedTail) while keeping the candidate's true trailing spacing in
// the error coefficient.
func (e *engine) lte(hist *integrate.History, res *pointResult) float64 {
	e.ltePts = hist.AppendSpacedTail(e.ltePts[:0], res.co.Order+1, res.co.H0/4)
	e.ltePts = append(e.ltePts, res.pt)
	if e.tr.Active() {
		t0 := time.Now()
		norm := e.ctrl.CheckLTEWith(e.base.Method, res.co.Order, e.ltePts, res.co.H0, res.co.H1, &e.lteScr)
		e.tr.Emit(trace.Event{
			Kind: trace.KindPhase, Phase: trace.PhaseLTE, T: res.pt.T, Norm: norm,
			Worker: -1, Stage: e.s.Stage, Dur: time.Since(t0).Nanoseconds(),
		})
		return norm
	}
	return e.ctrl.CheckLTEWith(e.base.Method, res.co.Order, e.ltePts, res.co.H0, res.co.H1, &e.lteScr)
}

// accept commits a point from owner's pool through the step controller. Any
// accepted point is progress: the failure streak resets.
func (e *engine) accept(pt *integrate.Point, owner int) {
	if ev := e.s.Commit(pt, pt.T-e.s.T, 0); ev != nil {
		e.release(ev)
	}
	e.owners = append(e.owners, owner)
	e.failStreak = 0
}

// release returns the oldest points, just dropped from the history, to the
// pools of the solvers that made them. Like recycle it runs between rounds,
// where nothing else holds them (Capture and Waveform.Append copy).
func (e *engine) release(pts ...*integrate.Point) {
	for i, pt := range pts {
		e.solvers[e.owners[i]].PutPoint(pt)
	}
	e.owners = e.owners[:copy(e.owners, e.owners[len(pts):])]
}

// recycle returns the point of a candidate the stage discards, if it has
// one, to the pool of the solver that made it.
func (e *engine) recycle(tg target) {
	if tg.planned() {
		e.solvers[tg.solver].PutPoint(e.res[tg.solver].pt)
	}
}

// noteDiscards counts n speculative points thrown away unused, pairing each
// Stats.Discarded increment with one KindDiscard event.
func (e *engine) noteDiscards(t float64, n int) {
	e.discarded += n
	if e.tr.Active() {
		for i := 0; i < n; i++ {
			e.tr.Emit(trace.Event{Kind: trace.KindDiscard, T: t, Worker: -1, Stage: e.s.Stage})
		}
	}
}

// degradeWindow is how many flush stages the pipeline runs after a
// degradation trigger before re-entering pipelined operation.
const degradeWindow = 8

// degrade drops the pipeline to serial integration for the next
// degradeWindow stages. The first trigger of a window is logged.
func (e *engine) degrade(reason string) {
	if e.degraded == 0 {
		e.s.RL.Note(e.s.T, transient.RecoverySerialFallback, reason)
		if e.tr.Active() {
			e.tr.Emit(trace.Event{
				Kind: trace.KindSerialFallback, T: e.s.T, Worker: -1,
				Stage: e.s.Stage, Detail: reason,
			})
		}
	}
	e.degraded = degradeWindow
}

// landed closes a stage whose last accepted point may sit on a breakpoint:
// when it does and the landing needs one (see Stepper.RestartDue), the
// controller restarts integration with a step bounded by lastStep and the
// pipeline refills serially until the LTE checks have a full stencil again —
// Gear-2 needs order+2 = 4 points, i.e. 3 accepted steps past the breakpoint
// point. It reports whether the stage is over.
func (e *engine) landed(hitBp bool, lastStep float64) bool {
	if hitBp && e.s.RestartDue() {
		e.release(e.s.Restart(lastStep)...)
		e.warmup = 3
		return true
	}
	e.s.AfterBreak = false
	return false
}

// nextStep picks the step for the following stage from the accepted
// anchor's LTE norm (see integrate.Control.NextStep), under the growth cap.
// The cap is applied to the stage's main advance (hUsed), exactly as the
// serial engine caps against its last step — the pipelining gain comes from
// the relaxed LTE error coefficient (clustered trailing history enters
// h1Next), not from weakening the cap.
func (e *engine) nextStep(hUsed, norm, h1Solve float64) {
	order := e.base.Method.Order()
	e.tailBuf = e.s.Hist.AppendTail(e.tailBuf[:0], 2)
	last := e.tailBuf
	h1Next := 0.0
	if len(last) == 2 {
		h1Next = last[1].T - last[0].T
	}
	h := e.ctrl.NextStep(e.base.Method, order, norm, hUsed, h1Solve, h1Next)
	if capV := hUsed * e.ctrl.GrowthCap; h > capV {
		h = capV
	}
	e.s.SetStep(num.Clamp(h, e.ctrl.HMin, e.ctrl.HMax))
}

// shrinkAfterFailure reduces the stage step after a pipelined stage's main
// point failed Newton. It never fails the run: repeated failures and the
// step floor both hand control to the flush stage, whose recovery ladder is
// the last word.
func (e *engine) shrinkAfterFailure() {
	if e.failStreak >= 3 {
		e.degrade("repeated stage failure")
	}
	if h := e.s.H / 8; h >= e.ctrl.HMin {
		e.s.SetStep(h)
	} else {
		e.s.SetStep(e.ctrl.HMin)
		e.degrade("step floor reached")
	}
}
