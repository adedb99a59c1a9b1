// Package integrate provides the variable-step implicit integration
// machinery shared by the serial and WavePipe transient engines: method
// coefficients for trapezoidal and Gear-2 (BDF2) with a backward-Euler
// start-up step, solution history, local-truncation-error (LTE) estimation
// with variable-step error constants, and step-size selection.
//
// The discretization replaces d/dt q(x) at the new time point by
//
//	Alpha0·q(x_new) + qhist
//
// where qhist is a linear combination of stored history charges (and, for
// the trapezoidal rule, the stored charge derivative). The variable-step
// Gear-2 LTE constant
//
//	E(h0, h1) = h0²·(h0+h1)² / (6·(2·h0+h1)) · |x‴|
//
// is the quantity WavePipe's backward pipelining exploits: inserting an
// extra history point at small trailing spacing h1 shrinks the constant
// from 2h³/9 (uniform) toward h³/12, allowing a larger next step.
package integrate

import (
	"fmt"
	"math"

	"wavepipe/internal/num"
)

// Method selects the implicit integration formula. Both methods are second
// order; the zero value, Gear2, is the default.
type Method int

// Supported integration methods.
const (
	Gear2 Method = iota
	Trapezoidal
)

// Order is the order of accuracy of every Method. Only the start-up step
// from a one-point history (the start and every restart) is first order:
// backward Euler, whatever the method.
const Order = 2

// names is the one name table: String reads it, and Names hands it to the
// parsers of the command line and the wire.
var names = [...]string{Gear2: "gear2", Trapezoidal: "trap"}

// String returns the method name, or "unknown" for a value that names none.
func (m Method) String() string {
	if m < 0 || int(m) >= len(names) {
		return "unknown"
	}
	return names[m]
}

// Names returns every method's name, indexed by the Method.
func Names() []string { return append([]string(nil), names[:]...) }

// Point is one accepted solution point. Points are immutable once published
// and may be shared freely between workers.
type Point struct {
	T    float64
	X    []float64 // solution vector
	Q    []float64 // charge/flux vector
	Qdot []float64 // discretized dQ/dt at T (needed by the trapezoidal rule)
}

// HistoryDepth is how many trailing points the engines retain: enough for
// Gear-2 coefficients (2), third-derivative LTE estimation (4) and a couple
// of WavePipe backward points.
const HistoryDepth = 8

// History is the bounded trailing window of accepted points, ascending in
// time. The zero value is an empty history.
type History struct {
	pts []*Point
}

// Add appends a point (which must be later than the current last point) and
// trims the window to HistoryDepth, in place, so that a full history adds
// without allocating. It returns the evicted point, or nil when nothing fell
// out of the window. Only an owner that knows no other history still holds
// the point may recycle it: the engines recycle what their step controller's
// history evicts, never what a scratch history filled by CopyFrom does.
func (h *History) Add(p *Point) *Point {
	if n := len(h.pts); n > 0 && p.T <= h.pts[n-1].T {
		panic(fmt.Sprintf("integrate: History.Add out of order: %g after %g", p.T, h.pts[n-1].T))
	}
	h.pts = append(h.pts, p)
	if len(h.pts) > HistoryDepth {
		ev := h.pts[0]
		h.pts = h.pts[:copy(h.pts, h.pts[1:])]
		return ev
	}
	return nil
}

// RestoreHistory rebuilds a trailing window from checkpointed points. The
// points must ascend strictly in time; at most the last HistoryDepth are
// kept, matching what Add would have retained. The history takes ownership
// of the points.
func RestoreHistory(pts []*Point) (*History, error) {
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			return nil, fmt.Errorf("integrate: restore history: times not ascending at point %d", i)
		}
	}
	if len(pts) > HistoryDepth {
		pts = pts[len(pts)-HistoryDepth:]
	}
	return &History{pts: append([]*Point(nil), pts...)}, nil
}

// Len returns the number of stored points.
func (h *History) Len() int { return len(h.pts) }

// At returns the i-th stored point (0 is oldest).
func (h *History) At(i int) *Point { return h.pts[i] }

// Last returns the most recent point, or nil when empty.
func (h *History) Last() *Point {
	if len(h.pts) == 0 {
		return nil
	}
	return h.pts[len(h.pts)-1]
}

// AppendSpacedTail appends to dst up to k recent points (oldest first) whose
// pairwise spacing is at least minSep, always including the most recent
// point, and returns the extended slice; at minSep 0 it is the plain tail.
// Divided-difference derivative estimates on clustered stencils amplify
// solver noise by (span/minGap)², so the LTE test estimates derivatives from
// spaced points even when the history contains tightly clustered
// backward-pipelining points; the clustered spacing still enters the LTE
// error *coefficient*, which is where the WavePipe gain lives.
func (h *History) AppendSpacedTail(dst []*Point, k int, minSep float64) []*Point {
	start := len(dst)
	for i := len(h.pts) - 1; i >= 0 && len(dst)-start < k; i-- {
		p := h.pts[i]
		if len(dst) == start || dst[len(dst)-1].T-p.T >= minSep {
			dst = append(dst, p)
		}
	}
	// Reverse the appended segment to oldest-first.
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// CopyFrom makes h hold src's points (shared, not copied), reusing h's
// storage: a scratch history a pipeline stage extends speculatively without
// touching src.
func (h *History) CopyFrom(src *History) { h.pts = append(h.pts[:0], src.pts...) }

// Truncate keeps only the most recent point (used after waveform
// breakpoints, where derivative history is invalid). It returns a view of
// the dropped points, subject to the same recycling rule as Add's eviction:
// only a sole owner may reuse them.
func (h *History) Truncate() []*Point {
	if len(h.pts) <= 1 {
		return nil
	}
	dropped := h.pts[:len(h.pts)-1]
	h.pts = h.pts[len(h.pts)-1:]
	return dropped
}

// Coeffs holds the discretization at one new time point.
type Coeffs struct {
	Order  int     // effective order (1 on the backward-Euler start-up step)
	Alpha0 float64 // coefficient of q(x_new)
	H0     float64 // step to the new point
	H1     float64 // previous spacing (0 during startup)
}

// Compute returns the discretization coefficients and fills qhist (length
// of the system) so that qdot_new = Alpha0·q_new + qhist. A one-point
// history takes the backward-Euler start-up step, of order 1.
func Compute(m Method, h *History, tNew float64, qhist []float64) (Coeffs, error) {
	n := h.Len()
	if n == 0 {
		return Coeffs{}, fmt.Errorf("integrate: empty history")
	}
	last := h.Last()
	h0 := tNew - last.T
	if h0 <= 0 {
		return Coeffs{}, fmt.Errorf("integrate: non-positive step %g", h0)
	}
	if n < 2 {
		a0 := 1 / h0
		for i := range qhist {
			qhist[i] = -last.Q[i] * a0
		}
		return Coeffs{Order: 1, Alpha0: a0, H0: h0}, nil
	}
	prev := h.pts[n-2]
	h1 := last.T - prev.T
	if m == Trapezoidal {
		a0 := 2 / h0
		for i := range qhist {
			qhist[i] = -a0*last.Q[i] - last.Qdot[i]
		}
		return Coeffs{Order: 2, Alpha0: a0, H0: h0, H1: h1}, nil
	}
	a0 := (2*h0 + h1) / (h0 * (h0 + h1)) // Gear2
	a1 := -(h0 + h1) / (h0 * h1)
	a2 := h0 / (h1 * (h0 + h1))
	for i := range qhist {
		qhist[i] = a1*last.Q[i] + a2*prev.Q[i]
	}
	return Coeffs{Order: 2, Alpha0: a0, H0: h0, H1: h1}, nil
}

// ErrorCoefficient returns the LTE constant c(h0, h1) such that the local
// error per step is approximately c·|x^(order+1)|. h1 is the spacing of the
// two most recent history points (ignored where the formula is one-step).
func ErrorCoefficient(m Method, order int, h0, h1 float64) float64 {
	if order <= 1 {
		return h0 * h0 / 2 // the backward-Euler start-up: h²/2·x″
	}
	switch m {
	case Trapezoidal:
		return h0 * h0 * h0 / 12 // h³/12·x‴
	default: // Gear2 variable step
		if h1 <= 0 {
			h1 = h0
		}
		s := h0 + h1
		return h0 * h0 * s * s / (6 * (2*h0 + h1))
	}
}

// Control carries the step-acceptance policy.
type Control struct {
	Tol  num.Tolerances
	HMin float64
	HMax float64
}

// The step-acceptance constants every point is judged by, serial or
// pipelined alike.
const (
	trTol     = 7 // LTE overestimation factor (SPICE TRTOL)
	growthCap = 2 // max ratio h_next/h_prev per accepted point
	// zeroStableRatio is the largest step ratio h0/h1 at which variable-step
	// Gear-2 is zero-stable: past it the formula weights the older history
	// point by ω²/(2ω+1) > 1 (2.3 at a backward point's ω = 5).
	zeroStableRatio = 1 + math.Sqrt2
)

// DefaultControl returns SPICE-like step control defaults for a simulation
// window of length tstop.
func DefaultControl(tstop float64) Control {
	return Control{
		Tol:  num.DefaultTolerances(),
		HMin: tstop * 1e-12,
		HMax: tstop / 20,
	}
}

// LTEScratch pools the small per-call vectors of DerivNormWith and
// CheckLTEWith so the steady-state accept loop allocates nothing. The zero
// value is ready to use; one scratch serves one goroutine.
type LTEScratch struct {
	ts, ys, dd []float64
	xs         [][]float64
}

func (s *LTEScratch) ensure(n int) {
	if cap(s.ts) < n {
		s.ts = make([]float64, n)
		s.ys = make([]float64, n)
		s.dd = make([]float64, n)
		s.xs = make([][]float64, n)
	}
	s.ts, s.ys, s.dd, s.xs = s.ts[:n], s.ys[:n], s.dd[:n], s.xs[:n]
}

// DerivNormWith estimates the weighted norm of the (order+1)-th solution
// derivative from the trailing points (the candidate point included, last),
// in caller-pooled scratch. The result has units such that
// ErrorCoefficient(...)·DerivNormWith is the dimensionless weighted LTE.
// When not enough points exist, it returns 0 (the step is accepted —
// matching SPICE's behaviour on startup).
func DerivNormWith(pts []*Point, order int, tol num.Tolerances, s *LTEScratch) float64 {
	k := order + 1 // derivative order to estimate
	if len(pts) < k+1 {
		return 0
	}
	pts = pts[len(pts)-(k+1):]
	s.ensure(k + 1)
	for i, p := range pts {
		s.ts[i], s.xs[i] = p.T, p.X
	}
	fact := 1.0
	for i := 2; i <= k; i++ {
		fact *= float64(i)
	}
	// x_i^(k) ≈ k!·x_i[t_0, …, t_k], weighted by the candidate's magnitude.
	return tol.TopDifferenceNorm(s.ts, s.xs, fact, pts[len(pts)-1].X, s.ys, s.dd)
}

// CheckLTEWith returns the dimensionless LTE norm of the candidate step, in
// caller-pooled scratch: the step is acceptable when the result is <= 1. pts
// must end with the candidate point; h1 is the trailing history spacing
// before the step.
func (c Control) CheckLTEWith(m Method, order int, pts []*Point, h0, h1 float64, s *LTEScratch) float64 {
	d := DerivNormWith(pts, order, c.Tol, s)
	if d == 0 {
		return 0
	}
	return ErrorCoefficient(m, order, h0, h1) * d / trTol
}

// MaxStep returns the largest step h0 from the end of the given history
// such that the predicted LTE is acceptable: ErrorCoefficient(m, order, h0,
// h1)·derivNorm <= trTol. derivNorm should come from DerivNormWith on the
// trailing points. A zero derivNorm yields HMax.
func (c Control) MaxStep(m Method, order int, derivNorm, h1 float64) float64 {
	if derivNorm <= 0 {
		return c.HMax
	}
	lo, hi := c.HMin, c.HMax
	if ErrorCoefficient(m, order, hi, h1)*derivNorm <= trTol {
		return hi
	}
	if ErrorCoefficient(m, order, lo, h1)*derivNorm > trTol {
		return lo
	}
	// Bisection: ErrorCoefficient is monotone in h0.
	for i := 0; i < 60 && hi/lo > 1.0001; i++ {
		mid := math.Sqrt(lo * hi)
		if ErrorCoefficient(m, order, mid, h1)*derivNorm <= trTol {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// NextStep derives the step after an accepted point from that point's own
// dimensionless LTE norm (CheckLTEWith at acceptance): the norm measured at
// scale hUsed implies a derivative magnitude d = norm·trTol/E(hUsed, h1Solve),
// and the next step is the largest h with E(h, h1Next)·d <= trTol. Using the
// accepted point's norm keeps the derivative estimate at the scale the
// integrator is actually resolving (raw divided differences over fine
// stencils are dominated by sub-tolerance stiff micro-modes and would trap
// the step). h1Next is the trailing history spacing the next step will see —
// this is where backward pipelining's clustered points relax the error
// coefficient — counted no shorter than hUsed/zeroStableRatio: the relaxed
// coefficient assumes exact history, and past that step ratio the history's
// own errors come back amplified, so a closer spacing buys no longer step
// (serially h1Next is hUsed and the floor never binds). A zero norm (no LTE
// information yet) yields HMax, leaving the growth cap in charge.
func (c Control) NextStep(m Method, order int, norm, hUsed, h1Solve, h1Next float64) float64 {
	if norm <= 1e-12 {
		return c.HMax
	}
	h1Next = math.Max(h1Next, hUsed/zeroStableRatio)
	dImplied := norm * trTol / ErrorCoefficient(m, order, hUsed, h1Solve)
	// The 0.9 safety factor keeps the controller off the acceptance
	// boundary; without it roughly a third of all candidates get rejected
	// and the reject/shrink/regrow limit cycle wastes the step budget.
	return 0.9 * c.MaxStep(m, order, dImplied, h1Next)
}

// ShrinkOnReject returns the retry step after an LTE rejection with norm
// lteNorm (> 1).
func (c Control) ShrinkOnReject(h, lteNorm float64, order int) float64 {
	f := 0.9 * math.Pow(1/lteNorm, 1/float64(order+1))
	f = num.Clamp(f, 0.1, 0.9)
	return math.Max(h*f, c.HMin)
}

// ClampStep applies the growth cap (relative to the last accepted step) and
// the absolute bounds.
func (c Control) ClampStep(h, hPrev float64) float64 {
	if hPrev > 0 && h > growthCap*hPrev {
		h = growthCap * hPrev
	}
	return num.Clamp(h, c.HMin, c.HMax)
}
