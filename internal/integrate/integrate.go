// Package integrate provides the variable-step implicit integration
// machinery shared by the serial and WavePipe transient engines: method
// coefficients for backward Euler, trapezoidal and Gear-2 (BDF2), solution
// history, local-truncation-error (LTE) estimation with variable-step error
// constants, and step-size selection.
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

// Method selects the implicit integration formula.
type Method int

// Supported integration methods.
const (
	BackwardEuler Method = iota
	Trapezoidal
	Gear2
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case BackwardEuler:
		return "be"
	case Trapezoidal:
		return "trap"
	case Gear2:
		return "gear2"
	default:
		return "unknown"
	}
}

// Order returns the asymptotic order of accuracy of the method.
func (m Method) Order() int {
	if m == BackwardEuler {
		return 1
	}
	return 2
}

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

// Tail returns a copy of up to the k most recent points, oldest first. The
// copy may be appended to freely (engines append candidate points for LTE
// checks) without aliasing the history's backing array.
func (h *History) Tail(k int) []*Point {
	return h.AppendTail(nil, k)
}

// AppendTail appends up to the k most recent points (oldest first) to dst
// and returns the extended slice — Tail for allocation-free inner loops that
// reuse a scratch buffer across calls.
func (h *History) AppendTail(dst []*Point, k int) []*Point {
	if k > len(h.pts) {
		k = len(h.pts)
	}
	return append(dst, h.pts[len(h.pts)-k:]...)
}

// SpacedTail returns up to k recent points (oldest first) whose pairwise
// spacing is at least minSep, always including the most recent point.
// Divided-difference derivative estimates on clustered stencils amplify
// solver noise by (span/minGap)², so the engines estimate derivatives from
// spaced points even when the history contains tightly clustered backward-
// pipelining points; the clustered spacing still enters the LTE error
// *coefficient*, which is where the WavePipe gain lives.
func (h *History) SpacedTail(k int, minSep float64) []*Point {
	return h.AppendSpacedTail(make([]*Point, 0, k), k, minSep)
}

// AppendSpacedTail appends up to k spaced recent points (oldest first, see
// SpacedTail) to dst and returns the extended slice — the allocation-free
// variant for callers that reuse a scratch buffer across LTE checks.
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
	Method Method
	Order  int     // effective order (BE startup may lower it)
	Alpha0 float64 // coefficient of q(x_new)
	H0     float64 // step to the new point
	H1     float64 // previous spacing (0 during startup)
}

// Compute returns the discretization coefficients and fills qhist (length
// of the system) so that qdot_new = Alpha0·q_new + qhist. The effective
// order degrades to backward Euler when the history is too short for the
// requested method.
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
	switch {
	case m == BackwardEuler || n < 2:
		a0 := 1 / h0
		for i := range qhist {
			qhist[i] = -last.Q[i] * a0
		}
		return Coeffs{Method: m, Order: 1, Alpha0: a0, H0: h0}, nil
	case m == Trapezoidal:
		a0 := 2 / h0
		for i := range qhist {
			qhist[i] = -a0*last.Q[i] - last.Qdot[i]
		}
		return Coeffs{Method: m, Order: 2, Alpha0: a0, H0: h0, H1: spacing(h)}, nil
	default: // Gear2
		prev := h.pts[n-2]
		h1 := last.T - prev.T
		a0 := (2*h0 + h1) / (h0 * (h0 + h1))
		a1 := -(h0 + h1) / (h0 * h1)
		a2 := h0 / (h1 * (h0 + h1))
		for i := range qhist {
			qhist[i] = a1*last.Q[i] + a2*prev.Q[i]
		}
		return Coeffs{Method: Gear2, Order: 2, Alpha0: a0, H0: h0, H1: h1}, nil
	}
}

func spacing(h *History) float64 {
	n := h.Len()
	if n < 2 {
		return 0
	}
	return h.pts[n-1].T - h.pts[n-2].T
}

// ErrorCoefficient returns the LTE constant c(h0, h1) such that the local
// error per step is approximately c·|x^(order+1)|. h1 is the spacing of the
// two most recent history points (ignored where the formula is one-step).
func ErrorCoefficient(m Method, order int, h0, h1 float64) float64 {
	if order <= 1 {
		return h0 * h0 / 2 // backward Euler: h²/2·x″
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
	Tol       num.Tolerances
	TrTol     float64 // LTE overestimation factor (SPICE TRTOL, default 7)
	HMin      float64
	HMax      float64
	GrowthCap float64 // max ratio h_next/h_prev per accepted point (default 2)
}

// DefaultControl returns SPICE-like step control defaults for a simulation
// window of length tstop.
func DefaultControl(tstop float64) Control {
	return Control{
		Tol:       num.DefaultTolerances(),
		TrTol:     7,
		HMin:      tstop * 1e-12,
		HMax:      tstop / 20,
		GrowthCap: 2,
	}
}

// LTEScratch pools the small per-call vectors of DerivNorm/CheckLTE so the
// steady-state accept loop allocates nothing. The zero value is ready to
// use; one scratch serves one goroutine.
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

// DerivNorm estimates the weighted norm of the (order+1)-th solution
// derivative from the trailing points (the candidate point included, last).
// The result has units such that ErrorCoefficient(...)·DerivNorm is the
// dimensionless weighted LTE. When not enough points exist, it returns 0
// (the step is accepted — matching SPICE's behaviour on startup).
func DerivNorm(pts []*Point, order int, tol num.Tolerances) float64 {
	var s LTEScratch
	return DerivNormWith(pts, order, tol, &s)
}

// DerivNormWith is DerivNorm with caller-pooled scratch.
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

// CheckLTE returns the dimensionless LTE norm of the candidate step: the
// step is acceptable when the result is <= 1. pts must end with the
// candidate point; h1 is the trailing history spacing before the step.
func (c Control) CheckLTE(m Method, order int, pts []*Point, h0, h1 float64) float64 {
	var s LTEScratch
	return c.CheckLTEWith(m, order, pts, h0, h1, &s)
}

// CheckLTEWith is CheckLTE with caller-pooled scratch.
func (c Control) CheckLTEWith(m Method, order int, pts []*Point, h0, h1 float64, s *LTEScratch) float64 {
	d := DerivNormWith(pts, order, c.Tol, s)
	if d == 0 {
		return 0
	}
	return ErrorCoefficient(m, order, h0, h1) * d / c.TrTol
}

// MaxStep returns the largest step h0 from the end of the given history
// such that the predicted LTE is acceptable: ErrorCoefficient(m, order, h0,
// h1)·derivNorm <= TrTol. derivNorm should come from DerivNorm on the
// trailing points. A zero derivNorm yields HMax.
func (c Control) MaxStep(m Method, order int, derivNorm, h1 float64) float64 {
	if derivNorm <= 0 {
		return c.HMax
	}
	lo, hi := c.HMin, c.HMax
	if ErrorCoefficient(m, order, hi, h1)*derivNorm <= c.TrTol {
		return hi
	}
	if ErrorCoefficient(m, order, lo, h1)*derivNorm > c.TrTol {
		return lo
	}
	// Bisection: ErrorCoefficient is monotone in h0.
	for i := 0; i < 60 && hi/lo > 1.0001; i++ {
		mid := math.Sqrt(lo * hi)
		if ErrorCoefficient(m, order, mid, h1)*derivNorm <= c.TrTol {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// NextStep derives the step after an accepted point from that point's own
// dimensionless LTE norm (CheckLTE at acceptance): the norm measured at
// scale hUsed implies a derivative magnitude d = norm·TrTol/E(hUsed, h1Solve),
// and the next step is the largest h with E(h, h1Next)·d <= TrTol. Using the
// accepted point's norm keeps the derivative estimate at the scale the
// integrator is actually resolving (raw divided differences over fine
// stencils are dominated by sub-tolerance stiff micro-modes and would trap
// the step). h1Next is the trailing history spacing the next step will see —
// this is where backward pipelining's clustered points relax the error
// coefficient. A zero norm (no LTE information yet) yields HMax, leaving the
// growth cap in charge.
func (c Control) NextStep(m Method, order int, norm, hUsed, h1Solve, h1Next float64) float64 {
	if norm <= 1e-12 {
		return c.HMax
	}
	dImplied := norm * c.TrTol / ErrorCoefficient(m, order, hUsed, h1Solve)
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
	if hPrev > 0 && h > c.GrowthCap*hPrev {
		h = c.GrowthCap * hPrev
	}
	return num.Clamp(h, c.HMin, c.HMax)
}
