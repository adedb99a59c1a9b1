// Package newton implements the damped Newton–Raphson loop used by the DC
// operating-point and transient engines. One call solves the assembled
// circuit equations F(x) + Alpha0·Q(x) + qhist − B(t) = 0 at a single time
// point, reusing the workspace's sparse factorization across iterations.
package newton

import (
	"fmt"
	"math"
	"time"

	"wavepipe/internal/circuit"
	"wavepipe/internal/faults"
	"wavepipe/internal/num"
	"wavepipe/internal/trace"
)

// ErrNoConvergence is wrapped by Solve when the iteration limit is reached.
// It aliases the shared taxonomy sentinel so callers can branch through
// either name with errors.Is.
var ErrNoConvergence = faults.ErrNoConvergence

// Options controls the Newton iteration.
type Options struct {
	MaxIter int            // iteration limit (default DefaultMaxIter)
	Tol     num.Tolerances // per-unknown update tolerance
	// Damping clamps each solution update component to ±Damping
	// (0 disables). Useful for MOS circuits without junction limiting.
	Damping float64
}

// DefaultMaxIter is the iteration limit applied when Options.MaxIter is
// unset.
const DefaultMaxIter = 50

// DefaultOptions returns the options used across the repository.
func DefaultOptions() Options {
	return Options{MaxIter: DefaultMaxIter, Tol: num.DefaultTolerances(), Damping: 5}
}

// Result reports what one Newton solve did.
type Result struct {
	Iters     int
	Converged bool
}

// Solve runs Newton–Raphson on workspace ws starting from (and updating) x.
// p carries the assembly parameters (time, Alpha0, gmin, source scale);
// qhist is the integration history vector (nil for DC). Scratch vectors r
// and dx must have length ws.Sys.N and are overwritten.
//
// On success x holds the converged solution and ws.F/Q/B the assembly at a
// point no further than one converged update from x (the standard SPICE
// convention: the last Load happened at the previous iterate).
func Solve(ws *circuit.Workspace, x []float64, p circuit.LoadParams, qhist []float64, opts Options, r, dx []float64) (Result, error) {
	var it Iter
	done, err := it.Run(ws, x, p, qhist, opts, r, dx)
	return Result{Iters: it.N, Converged: done}, err
}

// Iter is the state one point's Newton iteration carries from step to step.
// The zero value starts a fresh iteration.
type Iter struct {
	// N counts the iterations executed so far.
	N int
	// Warm marks the workspace as already assembled and factorized exactly at
	// the iterate. Because the device assembly does not depend on the
	// integration history, only the residual changes when the true history
	// replaces a predicted one: the next step therefore takes no load, no
	// factorization and no limiting-state flip — one residual rebuild and one
	// triangular solve — and the iteration then continues with full steps.
	// This is what makes forward pipelining pay: most of the forward point's
	// computation happened speculatively, off the critical path.
	Warm bool
	// WarmExact adds that the warm factorization is of the very matrix this
	// point assembles — the warm start ran under this point's Alpha0, bit for
	// bit — rather than of one a rounding away, which Warm alone admits.
	WarmExact bool
}

// Run drives the iteration to convergence or a terminal error: a Load at the
// current iterate, unless the workspace is warm, then step. Running out of
// opts.MaxIter is a terminal error too.
func (it *Iter) Run(ws *circuit.Workspace, x []float64, p circuit.LoadParams, qhist []float64, opts Options, r, dx []float64) (done bool, err error) {
	if opts.MaxIter <= 0 {
		opts.MaxIter = DefaultMaxIter
	}
	// The fault-injection check at the entry of an iteration that starts from
	// a fresh assembly (a resumed one took its check when its warm start
	// began): ws.Faults is nil in production.
	if !it.Warm {
		if cls, ok := ws.Faults.At(faults.SiteNewton, p.Time); ok && cls == faults.NoConvergence {
			return false, faults.Wrap("newton", p.Time, -1, fmt.Errorf("%w (injected)", ErrNoConvergence))
		}
	}
	for !done && err == nil {
		if !it.Warm {
			Load(ws, x, p)
		}
		done, err = it.step(ws, x, p, qhist, opts, r, dx)
		if !done && err == nil && it.N >= opts.MaxIter {
			err = faults.Wrap("newton", p.Time, -1,
				fmt.Errorf("%w after %d iterations", ErrNoConvergence, opts.MaxIter))
		}
	}
	return done, err
}

// step runs the post-assembly remainder of one Newton iteration — residual,
// factorize + solve, damped update, limiting-state flip, non-finite guard and
// the convergence test — on a workspace whose Load at x the caller has
// performed. done reports convergence; a non-nil err is terminal for this
// point.
func (it *Iter) step(ws *circuit.Workspace, x []float64, p circuit.LoadParams, qhist []float64, opts Options, r, dx []float64) (bool, error) {
	// Cooperative abort: a tripped deadline or watchdog interrupts even a
	// hung iteration at the next iteration boundary.
	if err := ws.Abort.Err(); err != nil {
		return false, faults.Wrap("newton", p.Time, -1, err)
	}
	iter := it.N
	limited := ws.Limited
	ws.Residual(p.Alpha0, qhist, r)
	warm := it.Warm
	it.Warm = false
	var err error
	if warm {
		err = ws.Solver.Solve(r, dx)
	} else {
		err = factorAndSolve(ws, p.Time, r, dx)
	}
	if err != nil {
		return false, iterErr(p.Time, iter, err)
	}
	// On a linear system the residual is affine in x and the assembled matrix
	// is its Jacobian everywhere, so a full Newton step taken through an exact
	// factorization of that matrix lands on the solution: it is certified by
	// construction, and an iteration spent confirming it would move x by
	// round-off only. Two steps are not that step and go on to the update
	// test below like any other: one that damping clamps, and a warm one
	// whose LU was factorized under an Alpha0 differing from this point's in
	// any bit. A certified step reads no update norm, so it is the plain
	// x_{k+1} = x_k − J⁻¹·R; every other step takes applyUpdate's damped one.
	certified := ws.Sys.Linear() && (!warm || it.WarmExact) && !clamps(dx, opts.Damping)
	var maxRatio float64
	if certified {
		for i := range x {
			x[i] -= dx[i]
		}
	} else {
		maxRatio = applyUpdate(x, dx, opts)
	}
	if !warm {
		ws.FlipState()
	}
	it.N++
	if err := nonFiniteErr(x, p.Time, it.N); err != nil {
		return false, err
	}
	if certified {
		return true, nil
	}
	// SPICE's convergence rule: accept as soon as the Newton update is
	// inside the tolerance band, on any iteration — the update was
	// computed from an exact Jacobian/residual at the previous iterate,
	// so a small step certifies the iterate. The guard against the
	// pn-junction false-convergence trap (an iterate assembled under
	// active device limiting may pass the update test while grossly
	// violating the true residual) is the limiting flag.
	return maxRatio <= 1 && !limited, nil
}

func iterErr(t float64, iter int, err error) error {
	return faults.Wrap("newton", t, -1, fmt.Errorf("iteration %d: %w", iter, err))
}

// nonFiniteErr guards the iterate after an update: a NaN/Inf iterate can
// never converge — every later update test compares against NaN — so the
// iteration aborts at once instead of burning its whole budget, and names the
// unknown that went bad.
func nonFiniteErr(x []float64, t float64, iters int) error {
	if i := num.NonFiniteIndex(x); i >= 0 {
		return faults.Wrap("newton", t, i,
			fmt.Errorf("%w in iterate after %d iterations", faults.ErrNonFinite, iters))
	}
	return nil
}

// Load assembles the system, pairing each load the engines perform — inside
// the iteration or around it (initial point, warm start) — with exactly one
// PhaseDeviceLoad event when tracing is active.
func Load(ws *circuit.Workspace, x []float64, p circuit.LoadParams) {
	if !ws.Trace.Active() {
		ws.Load(x, p)
		return
	}
	t0 := time.Now()
	ws.Load(x, p)
	ws.Trace.Emit(trace.Event{
		Kind: trace.KindPhase, Phase: trace.PhaseDeviceLoad,
		Dur: time.Since(t0).Nanoseconds(), T: p.Time, Worker: ws.Worker,
	})
}

// ChargePass books the charges of a converged iterate (Workspace.LoadCharges)
// in place of the full load that used to, under the same one PhaseDeviceLoad
// event: the device-model time of a point is still the sum of its
// PhaseDeviceLoad spans, and a trace still holds one per point closed.
func ChargePass(ws *circuit.Workspace, x []float64, p circuit.LoadParams) {
	if !ws.Trace.Active() {
		ws.LoadCharges(x, p)
		return
	}
	t0 := time.Now()
	ws.LoadCharges(x, p)
	ws.Trace.Emit(trace.Event{
		Kind: trace.KindPhase, Phase: trace.PhaseDeviceLoad,
		Dur: time.Since(t0).Nanoseconds(), T: p.Time, Worker: ws.Worker,
	})
}

func factorAndSolve(ws *circuit.Workspace, at float64, r, dx []float64) error {
	if cls, ok := ws.Faults.At(faults.SiteFactor, at); ok && cls == faults.Singular {
		return fmt.Errorf("%w (injected)", faults.ErrSingular)
	}
	if err := Factorize(ws, at); err != nil {
		return err
	}
	if !ws.Trace.Active() {
		return ws.Solver.Solve(r, dx)
	}
	t0 := time.Now()
	err := ws.Solver.Solve(r, dx)
	ev := trace.Event{
		Kind: trace.KindPhase, Phase: trace.PhaseTriSolve,
		Dur: time.Since(t0).Nanoseconds(), T: at, Worker: ws.Worker,
	}
	if err != nil {
		ev.Flags |= trace.FlagFailed
	}
	ws.Trace.Emit(ev)
	return err
}

// Factorize is the one way the engines ask the workspace's solver for a
// factorization of the assembled matrix. When tracing is active every request
// emits exactly one PhaseFactor event carrying its outcome — FlagReused for an
// unchanged matrix answered exactly from a factorization the solver holds —
// so trace replay reconciles 1:1 with the solver's ReusedFactorizations
// counter.
func Factorize(ws *circuit.Workspace, at float64) error {
	if !ws.Trace.Active() {
		return ws.Solver.Factorize()
	}
	t0 := time.Now()
	err := ws.Solver.Factorize()
	ev := trace.Event{
		Kind: trace.KindPhase, Phase: trace.PhaseFactor,
		Dur: time.Since(t0).Nanoseconds(), T: at, Worker: ws.Worker,
	}
	if ws.Solver.LastReused {
		ev.Flags |= trace.FlagReused
	}
	if err != nil {
		ev.Flags |= trace.FlagFailed
	}
	ws.Trace.Emit(ev)
	return err
}

// applyUpdate performs x -= clamp(dx) and returns the weighted update norm.
func applyUpdate(x, dx []float64, opts Options) (maxRatio float64) {
	for i := range x {
		d := dx[i]
		if opts.Damping > 0 {
			d = num.Clamp(d, -opts.Damping, opts.Damping)
		}
		xOld := x[i]
		x[i] -= d
		w := opts.Tol.Weight(math.Max(math.Abs(xOld), math.Abs(x[i])))
		if ratio := math.Abs(d) / w; ratio > maxRatio {
			maxRatio = ratio
		}
	}
	return maxRatio
}

// clamps reports whether damping (0: none) cuts any component of dx short
// of the full Newton step.
func clamps(dx []float64, damping float64) bool {
	if damping > 0 {
		for _, d := range dx {
			if num.Clamp(d, -damping, damping) != d {
				return true
			}
		}
	}
	return false
}
