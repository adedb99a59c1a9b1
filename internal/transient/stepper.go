package transient

import (
	"fmt"
	"math"
	"time"

	"wavepipe/internal/checkpoint"
	"wavepipe/internal/circuit"
	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/num"
	"wavepipe/internal/trace"
	"wavepipe/internal/waveform"
)

// Stepper is the adaptive step controller every engine advances time with:
// the accepted history and waveform, the breakpoint cursor, the step
// position (T, H, HUsed, AfterBreak) and the decisions taken on them — where
// the next candidate lands, what a failed solve costs, whether a converged
// candidate passes the truncation-error test, what committing it means, and
// how integration restarts after a waveform edge. It is decoupled from who
// solves: the serial engine (an ensemble lane is one) hands Step its point
// solver, and the pipeline coordinator composes
// Plan/Failed/Reject/Commit/Restart around its own stage proposers and LTE
// stencil.
type Stepper struct {
	// ps is the solver whose workspace holds the authoritative limiting and
	// factorization state (the serial solver or pipeline lane 0). It climbs
	// the recovery ladder and carries the Points and LTERejects counters.
	ps   *PointSolver
	Hist *integrate.History
	W    *waveform.Set
	RL   *RecoveryLog
	// Base holds the totals of run segments before a resume.
	Base Stats

	T, H, HUsed float64
	// AfterBreak is set from a restart until the next accepted point: with no
	// valid derivative history the LTE test cannot reject.
	AfterBreak bool

	// Worker and Stage are stamped on every event the stepper emits. Stage is
	// the owning engine's stage counter (the pipeline advances it once per
	// stage; single-point engines leave it 0).
	Worker int16
	Stage  int32

	sys   *circuit.System
	opts  Options
	ctrl  integrate.Control
	tr    *trace.Tracer
	phase string // engine name in typed errors

	bps         []float64
	nextBp      int
	horizonEdge bool    // a device waveform edge coincides with TStop
	limit       float64 // the planned candidate's boundary, and whether
	hitBp       bool    // the candidate sits on it

	ckptDue bool
	lteBuf  [integrate.HistoryDepth + 1]*integrate.Point // finish's LTE stencil
}

// NewStepper returns a controller positioned before the t = 0 point; Start
// computes (or restores) it. opts must have its defaults applied.
func NewStepper(sys *circuit.System, ps *PointSolver, opts *Options, phase string) *Stepper {
	devs := ps.WS.Devices()
	s := &Stepper{
		ps: ps, RL: &RecoveryLog{},
		AfterBreak: true, // the t = 0 point counts as a breakpoint start
		Worker:     ps.WS.Worker,
		sys:        sys, opts: *opts, ctrl: opts.Control, tr: opts.Trace, phase: phase,
		bps:         collectBreakpoints(devs, opts.TStop),
		horizonEdge: horizonIsEdge(devs, opts.TStop),
	}
	s.SetStep(math.Min(opts.HInit, opts.Control.HMax))
	return s
}

// stepMantissaBits is how many leading significant bits of a step SetStep
// keeps on a linear system. Any short width would do — the refactorizations a
// clocked mesh is left with are flat from 6 bits to 36 — and 12 is where
// the exactness argument reaches the step floor: a step with 12 significant
// bits is a whole multiple of 2⁻¹¹ of its own binade, an ulp of T is 2⁻⁵² of
// T's, so the step is a whole number of ulps of T for h/T down to 2⁻⁴⁰, and
// HMin is TStop·10⁻¹² ≈ 2⁻⁴⁰·TStop. A longer mantissa would give up exactness
// above the floor; a shorter one moves the step by more than it has to (the
// cost is under 2⁻¹¹ of a step, rounded down, so never past an LTE bound or a
// breakpoint).
const stepMantissaBits = 12

// SetStep is the one place the step is assigned: the controller's own
// decisions, the pipeline coordinator's, and a restored checkpoint's all
// arrive here. On a nonlinear system it stores h as given. On a linear one
// (circuit.System.Linear) it rounds h down to stepMantissaBits significant
// bits. The point is what integrate.Compute then recovers from the history:
// T and such an h are both whole multiples of an ulp of T, so while T+h stays
// in T's binade the sum is exact and (T+h)−T == h whatever the bits of T — h0
// and h1 are the steps that were set, Alpha0 is a function of them alone, and
// when the controller repeats a step the assembled matrix repeats bit for
// bit, which is what the solver's factor store is keyed on. Two kinds of step
// are outside the argument: one that lands on a breakpoint is the remainder
// it is, and a sum that crosses a power of two (a run crosses each once) may
// be rounded. Both yield an Alpha0 that is self-consistent — Compute derives
// it from the spacing actually taken — and at worst a store miss. Rounding is
// idempotent, so a step read back from a checkpoint this version wrote is
// unchanged and resume stays bit-identical.
func (s *Stepper) SetStep(h float64) {
	if s.sys.Linear() {
		h = math.Float64frombits(math.Float64bits(h) &^ (1<<(53-stepMantissaBits) - 1))
	}
	s.H = h
}

// Start establishes the first point: the checkpoint named by Options.Resume
// when there is one (returning its pipeline warm-up depth), else the DC
// operating point, which is also the first accepted row.
func (s *Stepper) Start() (warmup int, err error) {
	if st := s.opts.Resume; st != nil {
		return s.restore(st)
	}
	p0, err := InitialPoint(s.sys, s.ps, s.opts)
	if err != nil {
		return 0, err
	}
	s.Hist = &integrate.History{}
	s.Hist.Add(p0)
	s.W = RecordSet(s.sys, s.opts)
	s.W.Append(p0.T, p0.X)
	if s.opts.OnAccept != nil {
		s.opts.OnAccept(p0.T, s.W.Data[len(s.W.Data)-1])
	}
	return 0, nil
}

// Done reports whether the run has reached its horizon.
func (s *Stepper) Done() bool { return s.T >= s.opts.TStop*(1-1e-12) }

// abort wraps a tripped deadline or watchdog in the engine's typed error.
func (s *Stepper) abort(cause error) error {
	return &faults.SimError{Phase: s.phase, Time: s.T, Node: -1, Cause: cause}
}

// Poll is the loop-head check between steps: it writes the periodic
// checkpoint an earlier Commit found due (a failed write is latched in the
// controller but never kills a healthy run) and reports a tripped guard, a
// canceled context or an exhausted point budget.
func (s *Stepper) Poll(capture func() *checkpoint.State) error {
	guard := s.opts.Guard
	if s.ckptDue {
		s.ckptDue = false
		_ = guard.Save(capture())
	}
	if aerr := guard.Err(); aerr != nil {
		return s.abort(aerr)
	}
	if s.opts.Canceled() {
		if s.tr.Active() {
			s.tr.Emit(trace.Event{Kind: trace.KindCancel, T: s.T, Worker: -1, Stage: s.Stage})
		}
		return CancelError(s.phase, s.T)
	}
	// The budget is the run's, not the segment's: a resume restarts the
	// solver's counter and carries the earlier segments in Base.
	if s.Base.Points+s.ps.Stats.Points >= s.opts.MaxPoints {
		return fmt.Errorf("%s: exceeded %d points at t=%g", s.phase, s.opts.MaxPoints, s.T)
	}
	return nil
}

// Flush writes the final checkpoint on every exit path that accepted at
// least one point — success, typed abort, cancellation, even a panic
// unwinding through the facade's containment; engines defer it. A failed
// final save on an otherwise-successful run is an error: the caller asked
// for durability and did not get it.
func (s *Stepper) Flush(capture func() *checkpoint.State, runErr *error) {
	guard := s.opts.Guard
	if !guard.Active() || s.Hist == nil || s.Hist.Len() == 0 {
		return
	}
	saveErr := guard.SaveFinal(capture())
	if *runErr == nil && saveErr != nil {
		*runErr = &faults.SimError{Phase: "checkpoint", Time: s.T, Node: -1, Cause: saveErr}
	}
}

// LandOn clamps a candidate time onto limit when the step h that produced it
// lands within 1% of it — step-relative, so a shrinking step can always move
// the candidate off the limit (a limit-relative smudge can exceed tiny steps
// and trap the rejection loop).
func LandOn(limit, tNew, h float64) (float64, bool) {
	if tNew >= limit-0.01*h {
		return limit, true
	}
	return tNew, false
}

// Plan places the next candidate at T+H, landing exactly on the next
// breakpoint (or TStop) when the step reaches it.
func (s *Stepper) Plan() (tNew float64, hitBp bool) {
	for s.nextBp < len(s.bps) && s.bps[s.nextBp] <= s.T*(1+1e-12) {
		s.nextBp++
	}
	s.limit = s.opts.TStop
	if s.nextBp < len(s.bps) {
		s.limit = s.bps[s.nextBp]
	}
	tNew, s.hitBp = LandOn(s.limit, s.T+s.H, s.H)
	return tNew, s.hitBp
}

// Limit is the hard time boundary the last Plan measured against.
func (s *Stepper) Limit() float64 { return s.limit }

// Failed answers a failed solve of the planned candidate. Shrinking the step
// is the cheap first response: (nil, _, nil) asks the caller to plan again.
// Once the floor is reached the convergence-recovery ladder takes over at
// the smallest representable step and its point is returned — it still
// faces the LTE test. A tripped deadline or watchdog surfaces as a solve
// error (the Newton loop polls the abort flag) and is reported as the abort
// it is, not as a convergence failure.
func (s *Stepper) Failed() (*integrate.Point, integrate.Coeffs, error) {
	var co integrate.Coeffs
	if aerr := s.opts.Guard.Err(); aerr != nil {
		return nil, co, s.abort(aerr)
	}
	if s.H/8 >= s.ctrl.HMin {
		s.SetStep(s.H / 8)
		return nil, co, nil
	}
	s.SetStep(s.ctrl.HMin)
	tNew, _ := s.Plan()
	pt, co, err := s.ps.RecoverAt(s.Hist, tNew, s.RL)
	if err != nil {
		if aerr := s.opts.Guard.Err(); aerr != nil {
			return nil, co, s.abort(aerr)
		}
		return nil, co, &faults.SimError{
			Phase: s.phase, Time: s.T, Node: -1,
			Cause: fmt.Errorf("%w at t=%g: %w", faults.ErrStepTooSmall, s.T, err),
		}
	}
	return pt, co, nil
}

// TooCoarse is the LTE rejection rule: the norm exceeds the budget, the step
// can still shrink, and there is enough history for the estimate to mean
// anything (right after a breakpoint the point is accepted, as in SPICE).
func (s *Stepper) TooCoarse(norm, h0 float64) bool {
	return norm > 1 && h0 > s.ctrl.HMin*1.01 && !s.AfterBreak
}

// Reject counts one LTE rejection of a candidate at t and shrinks the step.
func (s *Stepper) Reject(t float64, co integrate.Coeffs, norm float64) {
	s.ps.Stats.LTERejects++
	if s.tr.Active() {
		s.tr.Emit(trace.Event{Kind: trace.KindLTEReject, T: t, H: co.H0, Norm: norm, Worker: s.Worker, Stage: s.Stage})
	}
	s.SetStep(s.ctrl.ShrinkOnReject(co.H0, norm, co.Order))
}

// Commit publishes an accepted point reached by a step of h: history,
// waveform row, OnAccept, the Points counter, the guard's heartbeat, and
// last the accept event — emitted only after T, history and waveform agree,
// because a panic unwinding out of an observer flushes a checkpoint that
// must see a committed step. It returns the point that fell out of the
// bounded history window; a caller whose solver is the history's sole owner
// recycles it into the next solve.
func (s *Stepper) Commit(pt *integrate.Point, h, norm float64) (evicted *integrate.Point) {
	evicted = s.Hist.Add(pt)
	s.W.Append(pt.T, pt.X)
	if s.opts.OnAccept != nil {
		s.opts.OnAccept(pt.T, s.W.Data[len(s.W.Data)-1])
	}
	s.ps.Stats.Points++
	s.T, s.HUsed = pt.T, h
	if s.opts.Guard.NoteAccept() {
		s.ckptDue = true // snapshot at the next Poll, never mid-step
	}
	if s.tr.Active() {
		s.tr.Emit(trace.Event{Kind: trace.KindAccept, T: pt.T, H: h, Norm: norm, Worker: s.Worker, Stage: s.Stage})
	}
	return evicted
}

// RestartDue reports whether a landing on the planned limit needs an
// integrator restart. A final landing on the plain horizon (no waveform edge
// at TStop) does not: the run is over, and keeping the history at full order
// lets a resumed continuation — durable restore, a time-parallel window
// chain — pick up without a restart transient.
func (s *Stepper) RestartDue() bool { return !s.Done() || s.horizonEdge }

// Restart re-enters integration after landing on a discontinuity: derivative
// history is invalid, so it is truncated (the dropped points are returned
// for recycling) and the step is sized from the gap to the next strictly
// later breakpoint, clamped by lastStep, as SPICE does. LTE control resumes
// as soon as enough history accumulates.
func (s *Stepper) Restart(lastStep float64) (dropped []*integrate.Point) {
	dropped = s.Hist.Truncate()
	s.SetStep(RestartStep(GapAfter(s.bps[s.nextBp:], s.T, s.opts.TStop), lastStep, s.opts.HInit, s.ctrl))
	s.AfterBreak = true
	return dropped
}

// finish judges a converged candidate for the planned time: LTE accept or
// reject (the norm is also what sizes the next step), commit, then either
// the break restart or the next step. The stepper's solver must be the
// history's sole owner: rejected, evicted and truncated points are recycled
// into its pool.
func (s *Stepper) finish(pt *integrate.Point, co integrate.Coeffs) {
	ps := s.ps
	norm := 0.0
	if !s.opts.NoLTE {
		tail := append(s.Hist.AppendTail(s.lteBuf[:0], co.Order+1), pt)
		if s.tr.Active() {
			t0 := time.Now()
			norm = s.ctrl.CheckLTEWith(ps.Method, co.Order, tail, co.H0, co.H1, &ps.LTE)
			s.tr.Emit(trace.Event{
				Kind: trace.KindPhase, Phase: trace.PhaseLTE, T: pt.T, Norm: norm,
				Worker: s.Worker, Stage: s.Stage, Dur: time.Since(t0).Nanoseconds(),
			})
		} else {
			norm = s.ctrl.CheckLTEWith(ps.Method, co.Order, tail, co.H0, co.H1, &ps.LTE)
		}
		if s.TooCoarse(norm, co.H0) {
			s.Reject(pt.T, co, norm)
			ps.PutPoint(pt)
			return
		}
	}
	ps.PutPoint(s.Commit(pt, co.H0, norm))
	if s.hitBp && s.RestartDue() {
		for _, dp := range s.Restart(s.HUsed) {
			ps.PutPoint(dp)
		}
		return
	}
	s.AfterBreak = false
	if s.opts.NoLTE {
		s.SetStep(s.ctrl.ClampStep(s.HUsed, s.HUsed))
		return
	}
	s.SetStep(s.ctrl.ClampStep(s.ctrl.NextStep(ps.Method, co.Order, norm, s.HUsed, co.H1, s.HUsed), s.HUsed))
}

// Step advances one candidate with the given solver: poll, plan, solve, the
// failure response, finish. A nil error with no progress (shrunk step, LTE
// rejection) just means call again.
func (s *Stepper) Step(solve func(*integrate.History, float64, []float64) (*integrate.Point, integrate.Coeffs, error)) error {
	if err := s.Poll(s.Snapshot); err != nil {
		return err
	}
	tNew, _ := s.Plan()
	pt, co, err := solve(s.Hist, tNew, nil)
	if err != nil {
		if pt, co, err = s.Failed(); pt == nil {
			return err
		}
	}
	s.finish(pt, co)
	return nil
}

// Totals returns the run's cumulative statistics when the stepper's solver did
// all the solving (serial engine): every solve was sequential, so
// Stages = Solves, plus the segments before a resume.
func (s *Stepper) Totals() Stats {
	s.ps.HarvestSolverStats()
	st := s.ps.Stats
	st.Stages = st.Solves
	st.Add(s.Base)
	return st
}

// Snapshot is Capture for the single-solver engines.
func (s *Stepper) Snapshot() *checkpoint.State { return s.Capture(s.Totals(), 0, 0) }

// Result assembles the run outcome — final, or partial beside an error —
// from the controller state and the engine's totals.
func (s *Stepper) Result(stats Stats) *Result {
	res := &Result{W: s.W, Stats: stats, Recovery: s.RL}
	if s.Hist != nil {
		if last := s.Hist.Last(); last != nil {
			res.FinalX = num.Copy(last.X)
		}
	}
	return res
}
