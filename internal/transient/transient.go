// Package transient implements the serial adaptive-step transient engine —
// the baseline WavePipe is measured against — plus the single-point solver
// machinery (predictor, Newton solve, charge bookkeeping) shared with the
// parallel engines.
package transient

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"wavepipe/internal/checkpoint"
	"wavepipe/internal/circuit"
	"wavepipe/internal/dcop"
	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/newton"
	"wavepipe/internal/num"
	"wavepipe/internal/trace"
	"wavepipe/internal/waveform"
)

// Breakpointer is implemented by devices whose waveforms have slope
// discontinuities the engine must land on exactly.
type Breakpointer interface {
	Breakpoints(stop float64) []float64
}

// Options configures a transient analysis.
type Options struct {
	TStop   float64           // end of the simulation window (required)
	Method  integrate.Method  // integration method (default Gear2)
	HInit   float64           // first step (default TStop·1e-6)
	Control integrate.Control // zero value → integrate.DefaultControl(TStop)
	Newton  newton.Options    // zero value → newton.DefaultOptions()
	Gmin    float64           // junction shunt (default 1e-12)
	// UIC skips the DC operating point and starts from the IC values
	// (unspecified nodes start at 0), like SPICE's .TRAN ... UIC.
	UIC bool
	// IC maps solution-vector indices to initial values (used with UIC).
	IC map[int]float64
	// NodeSet maps solution-vector indices to operating-point initial
	// guesses (.NODESET): they seed Newton but are not enforced.
	NodeSet map[int]float64
	// Record lists solution-vector indices to store in the result waveform
	// set; nil records every node voltage.
	Record []int
	// MaxPoints aborts runaway simulations (default 2 000 000).
	MaxPoints int
	// DCOp configures the operating-point search.
	DCOp dcop.Options
	// NoLTE disables truncation-error step control (fixed conservative
	// stepping; used by ablation experiments).
	NoLTE bool
	// CoreBudget caps the cores a run may occupy at once; 0 leaves it to the
	// host. A time point is always solved by one goroutine, so Run itself
	// uses one core whatever the budget and only records it in Stats; the
	// pipeline engine reads it to size its stage gang, and the window
	// coordinator hands each window its share. No budget changes a waveform.
	CoreBudget int
	// DeviceBypass enables the incremental assembly engine:
	// linear devices collapse into a cached per-Alpha0 stamp template and two
	// compact matrix-vector products; nonlinear devices are evaluated as
	// always. The template sums the linear stamps in a different order than
	// the device sweep, so results agree with the default path to rounding,
	// not bit for bit. false is the default, and the bit-exact reference path.
	DeviceBypass bool
	// Faults, when non-nil, is a deterministic fault-injection harness shared
	// by every solver layer of the run (tests only; nil in production).
	Faults *faults.Injector
	// Ctx, when non-nil, is polled at every time-point boundary: once it is
	// done the run stops, returning the partial Result alongside an error
	// wrapping faults.ErrCanceled.
	Ctx context.Context
	// Trace, when non-nil, receives the structured run telemetry (per-point
	// events, solve-phase timings, periodic snapshots). Nil keeps the hot
	// path allocation- and clock-read-free.
	Trace *trace.Tracer
	// Guard, when non-nil, makes the run durable and time-bound: it owns the
	// cooperative abort flag (deadline timer, stall watchdog), decides when
	// periodic checkpoints are due, and persists them. The engine writes a
	// final checkpoint on every exit path that has at least one accepted
	// point.
	Guard *checkpoint.Controller
	// Resume, when non-nil, is a validated-on-entry checkpoint the run
	// continues from instead of computing a DC operating point. The caller
	// must pass the same circuit and analysis options the checkpoint was
	// written under.
	Resume *checkpoint.State
	// OnAccept, when non-nil, observes every accepted time point right after
	// it is committed to the waveform set: t is the point's time and row the
	// recorded values in waveform column order. The row aliases the set's
	// storage — callers that retain it past the callback must copy. Called
	// from the engine's commit goroutine only, in time order, never after
	// Run returns. A resumed run does not re-emit points restored from the
	// checkpoint.
	OnAccept func(t float64, row []float64)
}

// Canceled reports whether o.Ctx has been canceled (nil-safe, non-blocking).
func (o *Options) Canceled() bool {
	if o.Ctx == nil {
		return false
	}
	select {
	case <-o.Ctx.Done():
		return true
	default:
		return false
	}
}

// CancelError builds the typed error a canceled run returns.
func CancelError(phase string, t float64) error {
	return &faults.SimError{Phase: phase, Time: t, Node: -1, Cause: faults.ErrCanceled}
}

func (o Options) WithDefaults() Options {
	if o.Method == 0 {
		o.Method = integrate.Gear2
	}
	if o.HInit <= 0 {
		o.HInit = o.TStop * 1e-6
	}
	if o.Control == (integrate.Control{}) {
		o.Control = integrate.DefaultControl(o.TStop)
	}
	if o.Newton.MaxIter == 0 {
		o.Newton = newton.DefaultOptions()
	}
	if o.Gmin <= 0 {
		o.Gmin = 1e-12
	}
	if o.MaxPoints <= 0 {
		o.MaxPoints = 2_000_000
	}
	if o.DCOp.GminSteps == 0 {
		o.DCOp = dcop.DefaultOptions()
	}
	return o
}

// Stats aggregates the work a transient run performed. The JSON tags are
// its wire form (package wire, schemaVersion 1): the three omitempty fields
// were added to the schema after its first release, so absent means zero or
// an older peer.
type Stats struct {
	Points     int `json:"points"`     // accepted time points
	Solves     int `json:"solves"`     // Newton point solves attempted (incl. rejected/discarded)
	NRIters    int `json:"nrIters"`    // total Newton iterations
	LTERejects int `json:"lteRejects"` // points rejected by truncation-error control
	NRFailures int `json:"nrFailures"` // Newton non-convergence retries
	Discarded  int `json:"discarded"`  // speculative points thrown away (parallel engines)
	OpIters    int `json:"opIters"`    // operating-point Newton iterations
	Stages     int `json:"stages"`     // sequential solve rounds on the critical path
	Recoveries int `json:"recoveries"` // points rescued by the convergence-recovery ladder
	// WorkerPanics counts pipeline-stage worker panics converted to typed
	// errors; DegradedStages counts stages the pipeline ran serially because
	// of degradation (not counting post-breakpoint warmup).
	WorkerPanics   int `json:"workerPanics"`
	DegradedStages int `json:"degradedStages"`
	// Factorization accounting (filled from the sparse solver counters):
	// reused calls were handed the very values a factorization the solver
	// holds was refactored from (exact, no tolerance), refactorizations took
	// the numeric-only path, full factorizations re-pivoted from scratch. The
	// three sum to the number of factorization requests.
	//
	// BypassedFactorizations is always 0: factorization bypass is retired and
	// the field stays only because bench/harness.go reads it. The next
	// benchmark PR removes it together with sparse.bypassed_factorizations.
	BypassedFactorizations int `json:"bypassedFactorizations"`
	ReusedFactorizations   int `json:"reusedFactorizations,omitempty"`
	Refactorizations       int `json:"refactorizations"`
	FullFactorizations     int `json:"fullFactorizations"`
	// LinearStampHits counts device loads that started from a cached linear
	// stamp template instead of re-stamping every linear device (filled from
	// the workspace counter; 0 unless DeviceBypass is on).
	LinearStampHits int64 `json:"linearStampHits"`
	// CriticalNanos is the modeled multi-core wall-clock time: per pipeline
	// stage, the slowest concurrent worker's measured compute time. For the
	// serial engine it equals the sum of all point-solve times. This is the
	// timing model used to report speedups on hosts with fewer cores than
	// worker threads (see DESIGN.md, hardware substitution).
	CriticalNanos int64 `json:"criticalNanos"`
	// Scheduling accounting: the core budget the run was given, the pipeline
	// workers (or ensemble lanes) it ran under it, and whether the pipeline
	// had to serialize because the host (or the budget) could not actually
	// run the stage gangs concurrently.
	//
	// IntraWorkers is 0 or 1 (1 from the pipeline and the ensemble, and from
	// a serial run under a budget): a time point is solved by one goroutine,
	// and the field stays only because bench/harness.go and checkpoint slot
	// 19 read it. The benchmark PR of ROADMAP item 4 removes it together with
	// sched.intra_workers.
	CoreBudget         int  `json:"coreBudget"`
	PipelineWorkers    int  `json:"pipelineWorkers"`
	IntraWorkers       int  `json:"intraWorkers"`
	PipelineSerialized bool `json:"pipelineSerialized"`
	// Time-parallel (Parareal) window accounting, filled only by the
	// internal/windows coordinator: windows launched, fine-propagator
	// invocations (speculative solves plus redos), and windows that failed
	// their convergence gate and were redone from the exact predecessor
	// state. Points/Solves above count every inner run, including
	// speculative window solves later discarded, so trace replay still
	// reconciles 1:1; the stitched waveform is shorter than Points.
	WindowsLaunched int64 `json:"windowsLaunched"`
	PararealIters   int64 `json:"pararealIters"`
	WindowRedos     int64 `json:"windowRedos"`
	// Parasitic-reduction accounting, filled by the facade when the
	// internal/reduce pass shrank the system before this run: original
	// nodes and devices the pass suppressed. Like the scheduling fields,
	// they describe the run rather than per-worker work.
	ReducedNodes   int64 `json:"reducedNodes,omitempty"`
	ReducedDevices int64 `json:"reducedDevices,omitempty"`
}

// Add accumulates other into s (used to merge per-worker stats).
func (s *Stats) Add(other Stats) {
	s.Points += other.Points
	s.Solves += other.Solves
	s.NRIters += other.NRIters
	s.LTERejects += other.LTERejects
	s.NRFailures += other.NRFailures
	s.Discarded += other.Discarded
	s.OpIters += other.OpIters
	s.Stages += other.Stages
	s.Recoveries += other.Recoveries
	s.WorkerPanics += other.WorkerPanics
	s.DegradedStages += other.DegradedStages
	s.ReusedFactorizations += other.ReusedFactorizations
	s.Refactorizations += other.Refactorizations
	s.FullFactorizations += other.FullFactorizations
	s.LinearStampHits += other.LinearStampHits
	s.CriticalNanos += other.CriticalNanos
	// Scheduling fields describe the run, not per-worker work: keep the
	// maximum (per-worker stats carry zeros) and OR the serialization flag.
	if other.CoreBudget > s.CoreBudget {
		s.CoreBudget = other.CoreBudget
	}
	if other.PipelineWorkers > s.PipelineWorkers {
		s.PipelineWorkers = other.PipelineWorkers
	}
	if other.IntraWorkers > s.IntraWorkers {
		s.IntraWorkers = other.IntraWorkers
	}
	s.PipelineSerialized = s.PipelineSerialized || other.PipelineSerialized
	s.WindowsLaunched += other.WindowsLaunched
	s.PararealIters += other.PararealIters
	s.WindowRedos += other.WindowRedos
	if other.ReducedNodes > s.ReducedNodes {
		s.ReducedNodes = other.ReducedNodes
	}
	if other.ReducedDevices > s.ReducedDevices {
		s.ReducedDevices = other.ReducedDevices
	}
}

// Result is the outcome of a transient analysis. On failure the engines
// still return the partial Result accumulated so far (waveform, stats,
// recovery log) alongside the error, so callers can report how far the run
// got and what was tried.
type Result struct {
	W      *waveform.Set
	Stats  Stats
	FinalX []float64
	// Recovery records the robustness actions taken during the run (empty
	// on a healthy run).
	Recovery *RecoveryLog
}

// PointSolver computes implicit solutions at single time points on one
// workspace. One PointSolver must be used by at most one goroutine.
type PointSolver struct {
	WS     *circuit.Workspace
	Method integrate.Method
	Newton newton.Options
	Gmin   float64
	Stats  Stats
	// LastNanos is the measured wall time of the most recent SolveAt,
	// WarmStart or ResumeAt call; LastIters is the Newton iteration count of
	// the last closed solve.
	LastNanos int64
	LastIters int

	qhist, r, dx []float64

	// cur is the point solve in flight, between begin and Commit/Fail; it
	// lives here so that steady-state stepping allocates nothing.
	cur pointSolve

	// Warm-start bookkeeping for ResumeAt: the iterate WarmStart returned
	// (recycled by the next WarmStart, after the matching ResumeAt copied it)
	// and the time point and Alpha0 the workspace's current assembly and
	// factorization correspond to.
	warmPt     *integrate.Point
	warmTime   float64
	warmAlpha0 float64
	warmValid  bool

	// pred is the polynomial predictor's scratch; LTE holds the divided-
	// difference scratch of the engines' acceptance checks.
	pred predictor
	LTE  integrate.LTEScratch

	// ptPool recycles Point buffers (X/Q/Qdot) through takePoint/PutPoint.
	// predRing backs PredictPoint's speculative full-point predictions: a
	// fixed rotation of four points, enough that the at-most-two predictions
	// of one pipeline stage never alias the previous stage's.
	ptPool   []*integrate.Point
	predRing [4]*integrate.Point
	predNext int
}

// NewPointSolver allocates a solver on a fresh workspace of sys.
func NewPointSolver(sys *circuit.System, method integrate.Method, nopts newton.Options, gmin float64) *PointSolver {
	return NewPointSolverOn(sys.NewWorkspace(), method, nopts, gmin)
}

// NewPointSolverOn wraps a workspace the caller prepared (an ensemble lane's,
// with its own device list) in a point solver.
func NewPointSolverOn(ws *circuit.Workspace, method integrate.Method, nopts newton.Options, gmin float64) *PointSolver {
	n := ws.Sys.N
	scratch := make([]float64, 3*n)
	return &PointSolver{
		WS: ws, Method: method, Newton: nopts, Gmin: gmin,
		qhist: scratch[0:n:n], r: scratch[n : 2*n : 2*n], dx: scratch[2*n : 3*n : 3*n],
	}
}

// SetTrace attaches the run's event stream to this solver's workspace and
// assigns its worker lane (nil tr keeps the untraced fast path).
func (ps *PointSolver) SetTrace(tr *trace.Tracer, worker int16) {
	ps.WS.Trace = tr
	ps.WS.Worker = worker
}

// Attach wires the solver's workspace to a run: its fault harness, the
// guard's abort flag, the incremental assembly engine and the event stream
// (worker is this solver's lane in the trace).
func (ps *PointSolver) Attach(opts *Options, worker int16) {
	ps.WS.Faults = opts.Faults
	ps.WS.Abort = opts.Guard.AbortFlag()
	ps.WS.SetDeviceBypass(opts.DeviceBypass)
	ps.SetTrace(opts.Trace, worker)
}

// predictor is the scratch of the polynomial predictor: the trailing (at
// most three, so quadratic) history points and the per-component work
// vectors. The zero value is ready.
type predictor struct {
	tail      [3]*integrate.Point
	ts, ys, c [3]float64
	vs        [3][]float64
}

// extrapolate writes into dst the polynomial extrapolation to time t of one
// vector per trailing history point; pick selects which (X, Q or Qdot).
func (pr *predictor) extrapolate(hist *integrate.History, t float64, dst []float64, pick func(*integrate.Point) []float64) {
	pts := hist.AppendTail(pr.tail[:0], 3)
	k := len(pts)
	for i, p := range pts {
		pr.ts[i] = p.T
		pr.vs[i] = pick(p)
	}
	num.PredictVectorAtWith(pr.ts[:k], pr.vs[:k], t, dst, pr.ys[:k], pr.c[:k])
}

func pointX(p *integrate.Point) []float64    { return p.X }
func pointQ(p *integrate.Point) []float64    { return p.Q }
func pointQdot(p *integrate.Point) []float64 { return p.Qdot }

// Predict extrapolates the solution history polynomially to time t, writing
// the initial Newton guess into dst.
func Predict(hist *integrate.History, t float64, dst []float64) {
	var pr predictor
	pr.extrapolate(hist, t, dst, pointX)
}

// newPoint allocates a point with X/Q/Qdot buffers of the system size.
func (ps *PointSolver) newPoint() *integrate.Point {
	n := ps.WS.Sys.N
	return &integrate.Point{
		X:    make([]float64, n),
		Q:    make([]float64, n),
		Qdot: make([]float64, n),
	}
}

// takePoint pops a recycled point, or allocates one.
func (ps *PointSolver) takePoint() *integrate.Point {
	if k := len(ps.ptPool); k > 0 {
		pt := ps.ptPool[k-1]
		ps.ptPool = ps.ptPool[:k-1]
		return pt
	}
	return ps.newPoint()
}

// PutPoint hands a point's buffers back to the solver pool. The caller must
// be the point's sole owner: nothing published to a shared history, waveform
// or another worker may be recycled. Nil and foreign-sized points are
// ignored.
func (ps *PointSolver) PutPoint(pt *integrate.Point) {
	if pt == nil || len(pt.X) != ps.WS.Sys.N || len(pt.Q) != ps.WS.Sys.N || len(pt.Qdot) != ps.WS.Sys.N {
		return
	}
	ps.ptPool = append(ps.ptPool, pt)
}

// PredictPoint extrapolates a full (X, Q, Qdot) point from history — the
// speculative stand-in for a predecessor that has not converged yet. The
// returned point comes from a fixed four-slot rotation: it stays valid for
// the duration of the pipeline stage that requested it and is reused two
// PredictPoint calls later.
func (ps *PointSolver) PredictPoint(hist *integrate.History, t float64) *integrate.Point {
	slot := &ps.predRing[ps.predNext]
	ps.predNext = (ps.predNext + 1) % len(ps.predRing)
	if *slot == nil {
		*slot = ps.newPoint()
	}
	pt := *slot
	pt.T = t
	ps.pred.extrapolate(hist, t, pt.X, pointX)
	ps.pred.extrapolate(hist, t, pt.Q, pointQ)
	ps.pred.extrapolate(hist, t, pt.Qdot, pointQdot)
	return pt
}

// HarvestSolverStats copies the workspace's cumulative sparse-solver
// counters into Stats. Engines call it once per solver before merging stats.
func (ps *PointSolver) HarvestSolverStats() {
	ps.Stats.ReusedFactorizations = ps.WS.Solver.ReusedFactorizations
	ps.Stats.Refactorizations = ps.WS.Solver.Refactorizations
	ps.Stats.FullFactorizations = ps.WS.Solver.FullFactorizations
	ps.Stats.LinearStampHits = ps.WS.LinearStampHits()
}

// pointSolve is the state of one point solve between begin and Commit/Fail.
// Every way a point is computed is this one sequence: SolveAt and the
// recovery ladder run it through (begin, iterate, Commit/Fail); ResumeAt does
// the same with a warm iteration; WarmStart ends it by keeping the iterate
// instead of closing it.
type pointSolve struct {
	start time.Time // when the solve began
	pt    *integrate.Point
	co    integrate.Coeffs
	p     circuit.LoadParams
	opts  newton.Options
	it    newton.Iter
	flags uint8 // trace flags of the closing KindSolve event
}

// begin opens a point solve at tNew against hist: the integration
// coefficients and history vector, a pooled point holding seed (the
// polynomial prediction from hist when nil), the assembly parameters and a
// fresh iteration under opts. nodeGmin is the recovery ladder's
// node-to-ground conductance. On error nothing is left open.
func (ps *PointSolver) begin(hist *integrate.History, tNew float64, seed []float64, opts newton.Options, nodeGmin float64) error {
	ps.cur = pointSolve{start: time.Now(), opts: opts}
	s := &ps.cur
	var err error
	if s.co, err = integrate.Compute(ps.Method, hist, tNew, ps.qhist); err != nil {
		ps.model()
		return err
	}
	s.pt = ps.takePoint()
	if seed != nil {
		copy(s.pt.X, seed)
	} else {
		ps.pred.extrapolate(hist, tNew, s.pt.X, pointX)
	}
	s.p = circuit.LoadParams{Time: tNew, Alpha0: s.co.Alpha0, Gmin: ps.Gmin, SrcScale: 1, NodeGmin: nodeGmin}
	return nil
}

// run iterates the open solve to convergence or failure and closes it.
func (ps *PointSolver) run() (*integrate.Point, integrate.Coeffs, error) {
	s := &ps.cur
	ps.Stats.Solves++
	if _, err := s.it.Run(ps.WS, s.pt.X, s.p, ps.qhist, s.opts, ps.r, ps.dx); err != nil {
		return nil, s.co, ps.Fail(err)
	}
	return ps.Commit(), s.co, nil
}

// Commit closes a converged solve: one charge pass at the solution, so the
// stored charge vector is exactly Q(x) — the last load of the iteration sits
// one converged update away, and under junction limiting — then Qdot from
// the discretization. The returned point belongs to the caller.
func (ps *PointSolver) Commit() *integrate.Point {
	s := &ps.cur
	ps.closeSolve(nil)
	newton.ChargePass(ps.WS, s.pt.X, s.p)
	s.pt.T = s.p.Time
	copy(s.pt.Q, ps.WS.Q)
	for i := range s.pt.Qdot {
		s.pt.Qdot[i] = s.co.Alpha0*s.pt.Q[i] + ps.qhist[i]
	}
	if testHookCommit != nil {
		testHookCommit(ps)
	}
	ps.model()
	return s.pt
}

// testHookCommit, nil outside tests (export_test.go sets it), observes every
// Commit of every engine once the point's charges are booked — where the
// tests compare the charge pass with the full bookkeeping load it replaced.
var testHookCommit func(ps *PointSolver)

// Fail closes a solve that ended in a terminal error, recycling its point.
// Returns err unchanged for call-site convenience.
func (ps *PointSolver) Fail(err error) error {
	ps.closeSolve(err)
	ps.Stats.NRFailures++
	ps.PutPoint(ps.cur.pt)
	ps.model()
	return err
}

// closeSolve books the iteration count and publishes the one KindSolve event
// covering the solve so far (integration coefficients, prediction, Newton
// loop).
func (ps *PointSolver) closeSolve(err error) {
	s := &ps.cur
	ps.Stats.NRIters += s.it.N
	ps.LastIters = s.it.N
	tr := ps.WS.Trace
	if !tr.Active() {
		return
	}
	ev := trace.Event{
		Kind: trace.KindSolve, T: s.p.Time, H: s.co.H0, Iters: int32(s.it.N),
		Worker: ps.WS.Worker, Flags: s.flags, Dur: time.Since(s.start).Nanoseconds(),
	}
	if err != nil {
		ev.Flags |= trace.FlagFailed
	}
	tr.Emit(ev)
}

// model records the measured compute time of the solve being closed.
func (ps *PointSolver) model() {
	ps.LastNanos = time.Since(ps.cur.start).Nanoseconds()
	ps.Stats.CriticalNanos += ps.LastNanos
}

// SolveAt computes the converged solution at tNew using hist for the
// integration formula. guess, when non-nil, seeds Newton (otherwise a
// polynomial prediction from hist is used). It returns the new point and
// the coefficients that produced it.
func (ps *PointSolver) SolveAt(hist *integrate.History, tNew float64, guess []float64) (*integrate.Point, integrate.Coeffs, error) {
	return ps.solveAtWith(hist, tNew, guess, ps.Newton, 0)
}

// solveAtWith is SolveAt with explicit Newton options and an optional
// node-to-ground conductance (the recovery ladder's knobs).
func (ps *PointSolver) solveAtWith(hist *integrate.History, tNew float64, guess []float64, nopts newton.Options, nodeGmin float64) (*integrate.Point, integrate.Coeffs, error) {
	if err := ps.begin(hist, tNew, guess, nopts, nodeGmin); err != nil {
		return nil, ps.cur.co, err
	}
	return ps.run()
}

// WarmStart runs up to maxIter Newton iterations at tNew against the given
// (possibly speculative) history and returns the resulting approximation
// regardless of convergence. Forward pipelining uses it to pre-iterate on a
// predicted history while the true predecessor point is still being solved.
func (ps *PointSolver) WarmStart(hist *integrate.History, tNew float64, maxIter int) []float64 {
	ps.warmValid = false
	ps.PutPoint(ps.warmPt)
	ps.warmPt = nil
	opts := ps.Newton
	opts.MaxIter = maxIter
	if ps.begin(hist, tNew, nil, opts, 0) != nil {
		return nil
	}
	defer ps.model()
	s := &ps.cur
	ps.warmPt = s.pt
	x := s.pt.X
	s.it.Run(ps.WS, x, s.p, ps.qhist, s.opts, ps.r, ps.dx) // non-convergence is fine
	ps.Stats.NRIters += s.it.N
	if tr := ps.WS.Trace; tr.Active() {
		tr.Emit(trace.Event{
			Kind: trace.KindPredict, T: tNew, H: s.co.H0, Iters: int32(s.it.N),
			Worker: ps.WS.Worker, Dur: time.Since(s.start).Nanoseconds(),
		})
	}
	// Leave the workspace assembled and factorized exactly at x so ResumeAt
	// can pick the speculative work up with only a residual rebuild. The
	// device assembly is history-independent; only qhist will change.
	newton.Load(ps.WS, x, s.p)
	if err := newton.Factorize(ps.WS, tNew); err != nil {
		return x
	}
	ps.warmTime = tNew
	ps.warmAlpha0 = s.co.Alpha0
	ps.warmValid = true
	return x
}

// ResumeAt finishes a speculatively warm-started point against the true
// history: if the stored assembly matches (same time point, same Alpha0 —
// i.e. the predicted history had the same spacings), the first correction
// costs one residual rebuild and triangular solve; otherwise it is a plain
// SolveAt from the warm iterate.
func (ps *PointSolver) ResumeAt(hist *integrate.History, tNew float64, warm []float64) (*integrate.Point, integrate.Coeffs, error) {
	if err := ps.begin(hist, tNew, warm, ps.Newton, 0); err != nil {
		return nil, ps.cur.co, err
	}
	s := &ps.cur
	if ps.warmValid && warm != nil && ps.warmTime == tNew &&
		math.Abs(ps.warmAlpha0-s.co.Alpha0) <= 1e-9*math.Abs(s.co.Alpha0) {
		s.it.Warm = true
		s.it.WarmExact = ps.warmAlpha0 == s.co.Alpha0
		s.flags = trace.FlagResumed
	}
	ps.warmValid = false
	return ps.run()
}

// InitialPoint computes the t = 0 point: a DC operating point (or the UIC
// initial conditions) with its charge vector.
func InitialPoint(sys *circuit.System, ps *PointSolver, opts Options) (*integrate.Point, error) {
	n := sys.N
	x := make([]float64, n)
	if opts.UIC {
		for idx, v := range opts.IC {
			if idx < 0 || idx >= n {
				return nil, fmt.Errorf("transient: IC index %d out of range", idx)
			}
			x[idx] = v
		}
	} else {
		op := opts.DCOp
		if len(opts.NodeSet) > 0 && op.NodeSet == nil {
			op.NodeSet = opts.NodeSet
		}
		st, err := dcop.Solve(ps.WS, x, op)
		ps.Stats.OpIters += st.NRIters
		if err != nil {
			return nil, fmt.Errorf("transient: operating point: %w", err)
		}
		// .IC overrides on top of the operating point (SPICE applies them
		// as node constraints; overriding is the common simplification).
		for idx, v := range opts.IC {
			if idx >= 0 && idx < n {
				x[idx] = v
			}
		}
	}
	newton.Load(ps.WS, x, circuit.LoadParams{Time: 0, Alpha0: 0, Gmin: opts.Gmin, SrcScale: 1})
	return &integrate.Point{
		T:    0,
		X:    x,
		Q:    num.Copy(ps.WS.Q),
		Qdot: make([]float64, n),
	}, nil
}

// CollectBreakpoints gathers the waveform breakpoints of every device, plus
// tstop itself, sorted and deduplicated.
func CollectBreakpoints(sys *circuit.System, tstop float64) []float64 {
	return collectBreakpoints(sys.Circuit.Devices(), tstop)
}

func collectBreakpoints(devs []circuit.Device, tstop float64) []float64 {
	var bps []float64
	for _, d := range devs {
		if b, ok := d.(Breakpointer); ok {
			bps = append(bps, b.Breakpoints(tstop)...)
		}
	}
	bps = append(bps, tstop)
	sort.Float64s(bps)
	out := bps[:0]
	prev := math.Inf(-1)
	for _, t := range bps {
		if t > prev+1e-15*tstop && t > 0 {
			out = append(out, t)
			prev = t
		}
	}
	return out
}

// horizonIsEdge reports whether a device waveform breakpoint coincides with
// tstop itself. A run ending on a plain horizon keeps its integrator
// history at full order in the final checkpoint, so a continuation resumed
// from it (durable restore, time-parallel window chains) picks up
// seamlessly; a run ending exactly on a waveform edge must capture a
// restart state instead, because post-edge dynamics bear no relation to the
// pre-edge derivative history.
func horizonIsEdge(devs []circuit.Device, tstop float64) bool {
	// Waveforms enumerate breakpoints strictly below the stop they are
	// given, so an edge exactly at tstop only shows up when asked for a
	// slightly longer horizon.
	eps := tstop * 1e-9
	for _, d := range devs {
		b, ok := d.(Breakpointer)
		if !ok {
			continue
		}
		for _, bp := range b.Breakpoints(tstop + 2*eps) {
			if math.Abs(bp-tstop) <= eps {
				return true
			}
		}
	}
	return false
}

// DefaultRecord returns the record list for nil Options.Record: every node
// voltage.
func DefaultRecord(sys *circuit.System) ([]string, []int) {
	names := make([]string, sys.NumNodes)
	idx := make([]int, sys.NumNodes)
	for i := 0; i < sys.NumNodes; i++ {
		names[i] = sys.Circuit.NodeName(i)
		idx[i] = i
	}
	return names, idx
}

// RecordSet builds the waveform set for the given options.
func RecordSet(sys *circuit.System, opts Options) *waveform.Set {
	if opts.Record == nil {
		names, idx := DefaultRecord(sys)
		return waveform.NewSet(names, idx)
	}
	names := make([]string, len(opts.Record))
	for i, idx := range opts.Record {
		if idx < sys.NumNodes {
			names[i] = sys.Circuit.NodeName(idx)
		} else {
			names[i] = fmt.Sprintf("branch%d", idx-sys.NumNodes)
		}
	}
	return waveform.NewSet(names, opts.Record)
}

// GapAfter is the distance from t to the next breakpoint strictly after it
// (bps ascending), or to tstop when none is left.
func GapAfter(bps []float64, t, tstop float64) float64 {
	for _, bp := range bps {
		if bp > t*(1+1e-12) {
			return bp - t
		}
	}
	return tstop - t
}

// RestartStep sizes the first step after a waveform breakpoint: a small
// fraction of the gap to the next breakpoint, no larger than the last
// accepted step (the pre-edge dynamics bound what the circuit can follow),
// and never below the configured initial step.
func RestartStep(gap, lastStep, hInit float64, ctrl integrate.Control) float64 {
	h := gap / 4
	if lastStep > 0 && h > lastStep {
		h = lastStep
	}
	if h < hInit {
		h = hInit
	}
	return num.Clamp(h, ctrl.HMin, ctrl.HMax)
}

// Run executes the serial adaptive transient analysis.
func Run(sys *circuit.System, opts Options) (*Result, error) {
	ws := sys.NewWorkspace()
	ws.Worker = 0
	return RunOn(ws, opts)
}

// RunOn is Run on a workspace the caller prepared — an ensemble lane's, with
// the lane's device list (Workspace.SetDevices) and its index in ws.Worker,
// which every event of the run is stamped with. The run owns ws until it
// returns.
func RunOn(ws *circuit.Workspace, opts Options) (result *Result, runErr error) {
	if opts.TStop <= 0 {
		return nil, fmt.Errorf("transient: TStop must be positive")
	}
	opts = opts.WithDefaults()
	ps := NewPointSolverOn(ws, opts.Method, opts.Newton, opts.Gmin)
	ps.Attach(&opts, ws.Worker)
	if opts.CoreBudget > 0 {
		ps.Stats.CoreBudget = opts.CoreBudget
		ps.Stats.PipelineWorkers = 1
		ps.Stats.IntraWorkers = 1
	}
	s := NewStepper(ws.Sys, ps, &opts, "transient")
	defer s.Flush(s.Snapshot, &runErr)
	if _, err := s.Start(); err != nil {
		return nil, err
	}
	for !s.Done() {
		if err := s.Step(ps.SolveAt); err != nil {
			return s.Result(s.Totals()), err
		}
	}
	return s.Result(s.Totals()), nil
}
