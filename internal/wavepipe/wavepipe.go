// Package wavepipe implements the paper's contribution: waveform-pipelined
// parallel transient simulation. Multiple adjacent time points are computed
// concurrently by worker goroutines in a way resembling hardware pipelining,
// without relaxation — every accepted point satisfies the same implicit
// integration formula, Newton tolerance and LTE test as the serial engine.
//
// Two embodiments are provided, plus their combination:
//
//   - Backward pipelining (SchemeBackward): while the main worker computes
//     the regular next point t+h, extra workers compute solutions at
//     backward points t+h−δ, t+h−2δ, ... All depend only on already-known
//     history, so they run fully in parallel. The densely spaced trailing
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
//     (with 4 threads) under the forward point as well.
package wavepipe

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
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
	// Scheme selects backward, forward or combined pipelining.
	Scheme Scheme
	// Threads is the number of concurrent point workers: 2–3 for backward,
	// 2 for forward, 3–4 for combined. Defaults to 2 (3 for combined).
	Threads int
	// DeltaRatio sets the backward offset δ = DeltaRatio·h (default 0.2).
	DeltaRatio float64
	// ForceParallelWorkers launches stage workers as goroutines even when
	// the host has fewer cores than Threads (normally they run sequentially
	// there so the critical-path timing model stays uncontended). Results
	// are identical either way; used by the race-detector tests.
	ForceParallelWorkers bool
}

// Width is the pipeline width a scheme runs at when asked for threads
// workers (<= 0: the scheme's default) — what the engine uses, and what a
// caller budgeting cores around it (the window coordinator) must count.
func Width(scheme Scheme, threads int) int {
	switch {
	case scheme == SchemeForward:
		return 2 // forward pipelining is depth-1 in this implementation
	case threads <= 0 && scheme == SchemeCombined:
		return 3
	case threads <= 0:
		return 2
	case threads > 4:
		return 4
	}
	return threads
}

func (o Options) withDefaults() Options {
	o.Threads = Width(o.Scheme, o.Threads)
	if o.DeltaRatio <= 0 || o.DeltaRatio >= 0.9 {
		o.DeltaRatio = 0.2
	}
	return o
}

// Run executes a WavePipe transient analysis and returns a result of the
// same shape as the serial engine's.
func Run(sys *circuit.System, opts Options) (result *transient.Result, runErr error) {
	if opts.Base.TStop <= 0 {
		return nil, fmt.Errorf("wavepipe: TStop must be positive")
	}
	opts = opts.withDefaults()
	base := opts.Base.WithDefaults()
	e := &engine{opts: opts, base: base, ctrl: base.Control, flt: base.Faults, tr: base.Trace}
	// Two-level budget split: one core per pipeline worker first, then the
	// remainder divided into equal per-solver intra-point gangs. Small
	// systems keep the whole budget at the pipeline level — barrier costs
	// would eat the intra-point gain (see transient.IntraProfitable).
	e.intra = 1
	if base.CoreBudget > 0 {
		e.coreBudget = base.CoreBudget
		e.budget = sched.NewBudget(base.CoreBudget)
		e.budget.Reserve(opts.Threads) // pipeline leaders (may be partial)
		if transient.IntraProfitable(sys) {
			if intra := base.CoreBudget / opts.Threads; intra > 1 {
				e.intra = intra
			}
		}
	}
	for i := 0; i < opts.Threads; i++ {
		ps := transient.NewPointSolver(sys, base.Method, base.Newton, base.Gmin)
		ps.Attach(&e.base, int16(i))
		if e.intra > 1 {
			// NewPool grants whatever the budget still covers; a nil pool
			// (budget exhausted) just leaves this solver serial inside.
			if pool := e.budget.NewPool(e.intra); pool != nil {
				ps.WS.SetPool(pool)
				e.pools = append(e.pools, pool)
			}
		}
		e.solvers = append(e.solvers, ps)
	}
	defer func() {
		for _, p := range e.pools {
			p.Close()
		}
	}()

	// Lane 0 computes every main point and every serial-fallback point, so
	// its workspace holds the authoritative limiting/factorization state:
	// the step controller is built on it. Coordinator events carry no lane.
	s := transient.NewStepper(sys, e.solvers[0], &e.base, "wavepipe")
	s.Worker = -1
	e.s = s
	defer s.Flush(e.capture, &runErr)
	var err error
	if e.warmup, err = s.Start(); err != nil {
		return nil, err
	}
	if base.Resume != nil {
		// Lane 0 received the limiting/factorization state; the other lanes
		// adopt the limiting state (invalidating their journals). Pipelined
		// resume is equivalence-tolerance, not bit-identical: only the
		// serial engine's solve order is reproducible.
		for _, ps := range e.solvers[1:] {
			ps.WS.CopyStateFrom(e.solvers[0].WS)
		}
	}

	for !s.Done() {
		if err := s.Poll(e.capture); err != nil {
			return e.result(), err
		}
		s.Stage++
		switch {
		case e.warmup > 0 || e.degraded > 0:
			// Pipeline flush: after a waveform discontinuity the truncation-
			// error checks have no valid history, so speculative points
			// would be accepted blind. Like a hardware pipeline after a
			// branch, refill serially until LTE control re-engages. The same
			// serial path is the degradation fallback after worker panics or
			// repeated stage failures (see degrade).
			err = e.serialStage()
		case opts.Scheme == SchemeForward:
			err = e.forwardStage(false)
		case opts.Scheme == SchemeCombined:
			err = e.forwardStage(true)
		default:
			err = e.backwardStage()
		}
		if err != nil {
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
	stats.CoreBudget = e.coreBudget
	stats.PipelineWorkers = e.opts.Threads
	stats.IntraWorkers = 1
	for _, p := range e.pools {
		if w := p.Workers(); w > stats.IntraWorkers {
			stats.IntraWorkers = w
		}
	}
	stats.PipelineSerialized = e.pipelineSerialized
	stats.Add(e.s.Base)
	return stats
}

// capture snapshots the engine at a committed stage boundary.
func (e *engine) capture() *checkpoint.State { return e.s.Capture(e.totals(), e.warmup, 1) }

// result assembles the (possibly partial) run outcome from the engine state.
func (e *engine) result() *transient.Result { return e.s.Result(e.totals()) }

// engine holds the per-run coordinator state. Worker goroutines only touch
// their own PointSolver plus the immutable history snapshot of the stage.
type engine struct {
	opts Options
	base transient.Options
	ctrl integrate.Control

	solvers []*transient.PointSolver
	// s is the run's step controller (history, waveform, step position,
	// breakpoints, checkpoint cadence), shared with the serial engine.
	s      *transient.Stepper
	warmup int // serial stages remaining after a pipeline flush

	// Two-level scheduling state: the run's core budget (0 = unmanaged),
	// the per-solver intra-point gang width, the budget accountant and the
	// pools it granted, and whether any pipeline phase had to serialize.
	coreBudget         int
	intra              int
	budget             *sched.Budget
	pools              []*sched.Pool
	pipelineSerialized bool

	// Robustness state: the run's fault harness, the remaining
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
	// per-stage bookkeeping allocation-free.
	ltePts  []*integrate.Point
	tailBuf []*integrate.Point
	lteScr  integrate.LTEScratch
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

// sequentialFor reports whether a phase of n concurrent tasks must run
// sequentially. Two reasons force it: the host has fewer schedulable cores
// than tasks (concurrent solves would time-share the CPU and pollute the
// per-solve measurements behind the critical-path model), or the run's core
// budget grants fewer pipeline slots than the phase needs. Both are
// rechecked every phase — GOMAXPROCS is mutable at runtime, so a one-shot
// answer captured at engine construction can go stale mid-run.
func (e *engine) sequentialFor(n int) bool {
	if e.opts.ForceParallelWorkers {
		return false
	}
	if runtime.GOMAXPROCS(0) < n {
		return true
	}
	return e.coreBudget > 0 && e.coreBudget < n
}

// runTasks executes the independent tasks of one pipeline phase, in
// parallel on hosts with enough cores and budget, and sequentially
// otherwise (same results either way; see sequentialFor).
func (e *engine) runTasks(tasks ...func()) {
	if len(tasks) == 1 {
		tasks[0]()
		return
	}
	if e.sequentialFor(len(tasks)) {
		e.pipelineSerialized = true
		for _, t := range tasks {
			t()
		}
		return
	}
	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			f()
		}(t)
	}
	wg.Wait()
}

// pointResult carries one worker's outcome back to the coordinator.
type pointResult struct {
	pt  *integrate.Point
	co  integrate.Coeffs
	err error
}

// lteNorm checks a candidate against the pre-stage history, estimating the
// derivative from spaced points (see History.SpacedTail) while keeping the
// candidate's true trailing spacing in the error coefficient.
func (e *engine) lteNorm(res pointResult) float64 {
	return e.lteNormAgainst(e.s.Hist, res)
}

func (e *engine) lteNormAgainst(hist *integrate.History, res pointResult) float64 {
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

// accept commits a point through the step controller. Pipeline points come
// from several solvers' pools, so the one falling out of the history window
// is left to the collector. Any accepted point is progress: the failure
// streak resets.
func (e *engine) accept(pt *integrate.Point) {
	e.s.Commit(pt, pt.T-e.s.T, 0)
	e.failStreak = 0
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

// reject turns down the stage's anchor candidate at t: the controller counts
// it and shrinks the step, and every lane — not only the controller's —
// retires journals that describe the discarded trajectory.
func (e *engine) reject(t float64, co integrate.Coeffs, norm float64) {
	e.s.Reject(t, co, norm)
	e.invalidateBypass()
}

// invalidateBypass retires every solver's device-bypass journals. The
// coordinator calls it whenever the run's trajectory breaks — rejections,
// failures, breakpoints — so no pipeline lane replays stamps captured on a
// discarded path. Each workspace owns an independent generation counter, so
// concurrent stage workers are never exposed to a mid-flight bump (the
// coordinator only calls this between parallel phases).
func (e *engine) invalidateBypass() {
	for _, s := range e.solvers {
		s.WS.InvalidateDeviceBypass()
	}
}

// degradeWindow is how many serial stages the pipeline runs after a
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

// roundTask is one solver's share of a parallel round: solver w (also its
// lane in the trace) works toward the point at t, leaving its outcome in res.
type roundTask struct {
	w   int
	t   float64
	res *pointResult
	f   func()
}

// runRound executes one parallel round of a stage and returns with it on the
// books. Each task runs behind a panic fence, so that a panic (real or
// injected) surfaces as a typed error on its res instead of killing the
// process — a bad device model must cost at most the stage, never the run —
// and schedules the serial-fallback window. The slowest participating
// solver's modeled compute time joins the run's critical path, and every
// participant's is published as a worker-occupancy span at time t.
func (e *engine) runRound(t float64, tasks ...roundTask) {
	fns := make([]func(), len(tasks))
	for i, k := range tasks {
		fns[i] = func() {
			defer func() {
				if r := recover(); r != nil {
					k.res.err = &faults.SimError{
						Phase: "wavepipe", Time: k.t, Node: -1,
						Cause: fmt.Errorf("%w: %v", faults.ErrWorkerPanic, r),
					}
				}
			}()
			if cls, ok := e.flt.At(faults.SiteWorker, k.t); ok && cls == faults.WorkerPanic {
				panic(fmt.Sprintf("injected worker panic at t=%g", k.t))
			}
			k.f()
		}
	}
	e.runTasks(fns...)
	var crit int64
	for _, k := range tasks {
		if errors.Is(k.res.err, faults.ErrWorkerPanic) {
			e.workerPanics++
			e.degrade("worker panic")
		}
		crit = max(crit, e.noteWorker(t, k.w))
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

// solveTask is the round task in which solver w solves the point at t from
// hist.
func (e *engine) solveTask(w int, hist *integrate.History, t float64, res *pointResult) roundTask {
	return roundTask{w: w, t: t, res: res, f: func() {
		pt, co, err := e.solvers[w].SolveAt(hist, t, nil)
		*res = pointResult{pt: pt, co: co, err: err}
	}}
}

// serialStage advances one plain single-point step (the pipeline-flush
// refill path after breakpoints): the serial engine's step with the
// pipeline's LTE stencil and step selection.
func (e *engine) serialStage() error {
	s := e.s
	tNew, hitBp := s.Plan()
	pt, co, err := e.solvers[0].SolveAt(s.Hist, tNew, nil)
	if err != nil {
		// Step shrinking first; at the floor, the serial stage is the
		// pipeline's last line of defense, so it climbs the same
		// convergence-recovery ladder as the serial engine.
		e.failStreak++
		e.invalidateBypass()
		if pt, co, err = s.Failed(); pt == nil {
			return err
		}
		tNew, hitBp = s.Plan() // where Failed placed the ladder's point: one floor step on
	}
	e.critNanos += e.noteWorker(tNew, 0)
	norm := e.lteNorm(pointResult{pt: pt, co: co})
	if s.TooCoarse(norm, co.H0) {
		e.reject(tNew, co, norm)
		return nil
	}
	e.accept(pt)
	e.noteMainIters(e.solvers[0].LastIters)
	if e.landed(hitBp, co.H0) {
		return nil
	}
	if e.warmup > 0 {
		e.warmup--
	} else if e.degraded > 0 {
		e.degraded--
		e.degradedStages++
	}
	e.nextStep(co.H0, norm, co.H1)
	return nil
}

// landed closes a stage whose last accepted point may sit on a breakpoint:
// when it does and the landing needs one (see Stepper.RestartDue), the
// controller restarts integration with a step bounded by lastStep, every
// lane retires its pre-edge journals, and the pipeline refills serially
// until the LTE checks have a full stencil again — Gear-2 needs order+2 = 4
// points, i.e. 3 accepted steps past the breakpoint point. It reports
// whether the stage is over.
func (e *engine) landed(hitBp bool, lastStep float64) bool {
	if hitBp && e.s.RestartDue() {
		e.s.Restart(lastStep)
		e.invalidateBypass()
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
	e.s.H = num.Clamp(h, e.ctrl.HMin, e.ctrl.HMax)
}

// shrinkAfterFailure reduces the stage step after a Newton failure. It never
// fails the run: repeated failures and the step floor both hand control to
// the serial fallback, whose recovery ladder is the last word.
func (e *engine) shrinkAfterFailure() {
	e.failStreak++
	e.invalidateBypass()
	if e.failStreak >= 3 {
		e.degrade("repeated stage failure")
	}
	e.s.H /= 8
	if e.s.H < e.ctrl.HMin {
		e.s.H = e.ctrl.HMin
		e.degrade("step floor reached")
	}
}

// backwardStage runs one backward-pipelining stage: the main point t+h and
// Threads−1 backward points t+h−jδ, all solved concurrently from the same
// history.
func (e *engine) backwardStage() error {
	t, hist := e.s.T, e.s.Hist
	tMain, hitBp := e.s.Plan()
	h0 := tMain - t
	delta := e.opts.DeltaRatio * h0

	// Backward targets, ascending, ending with the main point. Offsets that
	// would crowd the base point are dropped.
	targets := make([]float64, 0, e.opts.Threads)
	for j := e.opts.Threads - 1; j >= 1; j-- {
		tb := tMain - float64(j)*delta
		if tb > t+0.05*h0 {
			targets = append(targets, tb)
		}
	}
	targets = append(targets, tMain)

	results := make([]pointResult, len(targets))
	tasks := make([]roundTask, len(targets))
	for i := range targets {
		tasks[i] = e.solveTask(i, hist, targets[i], &results[i])
	}
	e.runRound(tMain, tasks...)

	main := results[len(results)-1]
	if main.err != nil {
		e.noteDiscards(tMain, len(targets)-1)
		if !errors.Is(main.err, faults.ErrWorkerPanic) {
			// A panicked main worker is not a step-size problem; the
			// scheduled serial fallback simply redoes the point. Newton
			// failures shrink the step as before.
			e.shrinkAfterFailure()
		}
		return nil
	}
	mainNorm := e.lteNorm(main)
	if e.s.TooCoarse(mainNorm, main.co.H0) {
		e.reject(tMain, main.co, mainNorm)
		e.noteDiscards(tMain, len(targets)-1)
		return nil
	}

	// Accept the surviving backward points (ascending) and then the main
	// point. Backward points are optional accelerators: failures only cost
	// their potential speedup. LTE norms are evaluated against the
	// pre-stage history every candidate was actually solved from.
	keep := make([]bool, len(results)-1)
	for i, r := range results[:len(results)-1] {
		if r.err != nil {
			continue
		}
		if !e.s.AfterBreak {
			if norm := e.lteNorm(r); norm > 1 {
				continue
			}
		}
		keep[i] = true
	}
	for i, r := range results[:len(results)-1] {
		if keep[i] {
			e.accept(r.pt)
		} else {
			e.noteDiscards(targets[i], 1)
		}
	}
	e.accept(main.pt)

	if e.landed(hitBp, h0) {
		return nil
	}
	e.nextStep(h0, mainNorm, main.co.H1)
	return nil
}
