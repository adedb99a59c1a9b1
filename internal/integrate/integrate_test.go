package integrate

import (
	"math"
	"testing"

	"wavepipe/internal/num"
)

func pt(t float64, x, q, qdot float64) *Point {
	return &Point{T: t, X: []float64{x}, Q: []float64{q}, Qdot: []float64{qdot}}
}

func TestMethodMetadata(t *testing.T) {
	if BackwardEuler.Order() != 1 || Trapezoidal.Order() != 2 || Gear2.Order() != 2 {
		t.Fatal("orders")
	}
	if BackwardEuler.String() != "be" || Trapezoidal.String() != "trap" ||
		Gear2.String() != "gear2" || Method(9).String() != "unknown" {
		t.Fatal("names")
	}
}

func TestHistoryBasics(t *testing.T) {
	h := &History{}
	if h.Last() != nil || h.Len() != 0 {
		t.Fatal("empty history")
	}
	h.Add(pt(0, 1, 0, 0))
	h.Add(pt(1, 2, 0, 0))
	if h.Len() != 2 || h.Last().T != 1 || h.At(0).T != 0 {
		t.Fatal("add/last/at")
	}
	tail := h.Tail(5)
	if len(tail) != 2 {
		t.Fatalf("Tail = %d points", len(tail))
	}
	var c History
	c.Add(pt(-1, 0, 0, 0))
	c.CopyFrom(h)
	c.Add(pt(2, 3, 0, 0))
	if h.Len() != 2 || c.Len() != 3 || c.At(0) != h.At(0) || c.At(1) != h.At(1) {
		t.Fatal("CopyFrom must replace the points, share them and not alias growth")
	}
	h.Truncate()
	if h.Len() != 1 || h.Last().T != 1 {
		t.Fatal("Truncate")
	}
	// Window trimming.
	h2 := &History{}
	for i := 0; i < HistoryDepth+5; i++ {
		h2.Add(pt(float64(i), 0, 0, 0))
	}
	if h2.Len() != HistoryDepth {
		t.Fatalf("window = %d", h2.Len())
	}
}

func TestHistoryAddOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h := &History{}
	h.Add(pt(1, 0, 0, 0))
	h.Add(pt(0.5, 0, 0, 0))
}

func TestComputeBackwardEuler(t *testing.T) {
	h := &History{}
	h.Add(pt(0, 1, 3, 0))
	qh := make([]float64, 1)
	c, err := Compute(BackwardEuler, h, 0.5, qh)
	if err != nil {
		t.Fatal(err)
	}
	if c.Order != 1 || math.Abs(c.Alpha0-2) > 1e-15 {
		t.Fatalf("coeffs %+v", c)
	}
	if math.Abs(qh[0]-(-6)) > 1e-15 { // -q/h = -3/0.5
		t.Fatalf("qhist = %v", qh)
	}
	// Gear2 with a single history point degrades to BE.
	c, err = Compute(Gear2, h, 0.5, qh)
	if err != nil || c.Order != 1 {
		t.Fatalf("startup degradation: %+v, %v", c, err)
	}
}

func TestComputeTrapezoidal(t *testing.T) {
	h := &History{}
	h.Add(pt(0, 0, 0, 0))
	h.Add(pt(1, 1, 2, 0.5))
	qh := make([]float64, 1)
	c, err := Compute(Trapezoidal, h, 1.5, qh)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Alpha0-4) > 1e-15 { // 2/h = 2/0.5
		t.Fatalf("alpha0 = %g", c.Alpha0)
	}
	// qhist = -a0·q_n − qdot_n = -4·2 − 0.5.
	if math.Abs(qh[0]-(-8.5)) > 1e-15 {
		t.Fatalf("qhist = %v", qh)
	}
}

// The Gear2 variable-step coefficients must differentiate quadratics
// exactly: qdot(t) = a0·q(t) + a1·q(t−h0) + a2·q(t−h0−h1).
func TestGear2CoefficientsExactOnQuadratics(t *testing.T) {
	q := func(x float64) float64 { return 3*x*x - 2*x + 1 }
	dq := func(x float64) float64 { return 6*x - 2 }
	t0, t1, t2 := 0.3, 1.1, 1.7 // uneven spacing
	h := &History{}
	h.Add(pt(t0, 0, q(t0), 0))
	h.Add(pt(t1, 0, q(t1), 0))
	qh := make([]float64, 1)
	c, err := Compute(Gear2, h, t2, qh)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Alpha0*q(t2) + qh[0]
	if math.Abs(got-dq(t2)) > 1e-10 {
		t.Fatalf("BDF2 derivative = %g, want %g", got, dq(t2))
	}
}

func TestComputeErrors(t *testing.T) {
	h := &History{}
	if _, err := Compute(Gear2, h, 1, nil); err == nil {
		t.Fatal("empty history must error")
	}
	h.Add(pt(1, 0, 0, 0))
	if _, err := Compute(Gear2, h, 1, nil); err == nil {
		t.Fatal("zero step must error")
	}
}

func TestErrorCoefficientLimits(t *testing.T) {
	// Uniform spacing: Gear2 constant = 2h³/9.
	h := 0.01
	if got, want := ErrorCoefficient(Gear2, 2, h, h), 2*h*h*h/9; math.Abs(got-want) > 1e-18 {
		t.Fatalf("uniform Gear2 coeff = %g, want %g", got, want)
	}
	// δ → 0 limit: h³/12 — the backward-pipelining gain.
	if got, want := ErrorCoefficient(Gear2, 2, h, 1e-12), h*h*h/12; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("clustered Gear2 coeff = %g, want %g", got, want)
	}
	// The clustered constant is strictly smaller: that is the whole point.
	if ErrorCoefficient(Gear2, 2, h, h/10) >= ErrorCoefficient(Gear2, 2, h, h) {
		t.Fatal("backward point must reduce the error constant")
	}
	// Trapezoidal and BE.
	if got := ErrorCoefficient(Trapezoidal, 2, h, 0); math.Abs(got-h*h*h/12) > 1e-18 {
		t.Fatalf("TR coeff = %g", got)
	}
	if got := ErrorCoefficient(BackwardEuler, 1, h, 0); math.Abs(got-h*h/2) > 1e-18 {
		t.Fatalf("BE coeff = %g", got)
	}
	// h1 = 0 guard falls back to uniform.
	if got, want := ErrorCoefficient(Gear2, 2, h, 0), 2*h*h*h/9; math.Abs(got-want) > 1e-18 {
		t.Fatalf("h1=0 fallback = %g, want %g", got, want)
	}
}

func TestDerivNormOnCubic(t *testing.T) {
	// x(t) = t³ has x‴ = 6; with RelTol·|x|+AbsTol weights near t≈1 the
	// norm is 6/weight(x_last).
	tol := num.Tolerances{RelTol: 1e-3, AbsTol: 1e-6}
	var pts []*Point
	for _, tv := range []float64{0.7, 0.8, 0.95, 1.0} {
		pts = append(pts, pt(tv, tv*tv*tv, 0, 0))
	}
	got := DerivNorm(pts, 2, tol)
	want := 6 / tol.Weight(1.0)
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("DerivNorm = %g, want %g", got, want)
	}
	// Not enough points: 0.
	if DerivNorm(pts[:2], 2, tol) != 0 {
		t.Fatal("short history should return 0")
	}
}

func TestCheckLTEOrderBehaviour(t *testing.T) {
	// For x(t)=t³ under Gear2, halving the step must reduce the LTE norm
	// by ≈8 (third-order local error).
	c := Control{Tol: num.DefaultTolerances(), TrTol: 1, HMin: 1e-15, HMax: 1}
	mk := func(h float64) ([]*Point, float64, float64) {
		ts := []float64{0, h, 2 * h, 3 * h}
		var pts []*Point
		for _, tv := range ts {
			// Offset keeps the error weights equal across both grids so the
			// ratio isolates the h³ scaling.
			pts = append(pts, pt(tv, 100+tv*tv*tv, 0, 0))
		}
		return pts, h, h
	}
	pts1, h0, h1 := mk(0.1)
	n1 := c.CheckLTE(Gear2, 2, pts1, h0, h1)
	pts2, h0b, h1b := mk(0.05)
	n2 := c.CheckLTE(Gear2, 2, pts2, h0b, h1b)
	if ratio := n1 / n2; math.Abs(ratio-8) > 0.5 {
		t.Fatalf("LTE ratio = %g, want ≈8", ratio)
	}
}

func TestMaxStepMonotoneAndConsistent(t *testing.T) {
	c := Control{Tol: num.DefaultTolerances(), TrTol: 7, HMin: 1e-12, HMax: 1}
	d := 1e6 // weighted third-derivative norm
	h1 := 1e-3
	h := c.MaxStep(Gear2, 2, d, h1)
	// The returned step must satisfy the LTE bound (with bisection slack).
	if ErrorCoefficient(Gear2, 2, h, h1)*d > 7*1.001 {
		t.Fatalf("MaxStep %g violates LTE bound", h)
	}
	// Larger derivative → smaller step.
	if c.MaxStep(Gear2, 2, 10*d, h1) >= h {
		t.Fatal("MaxStep not monotone in derivative norm")
	}
	// Smaller trailing spacing → larger allowed step (backward pipelining).
	if c.MaxStep(Gear2, 2, d, h1/20) <= h {
		t.Fatal("clustered history must allow a larger step")
	}
	// Degenerate inputs.
	if c.MaxStep(Gear2, 2, 0, h1) != c.HMax {
		t.Fatal("zero derivative → HMax")
	}
	if c.MaxStep(Gear2, 2, 1e30, h1) != c.HMin {
		t.Fatal("huge derivative → HMin")
	}
}

func TestShrinkAndClamp(t *testing.T) {
	c := Control{Tol: num.DefaultTolerances(), TrTol: 7, HMin: 1e-9, HMax: 1, GrowthCap: 2}
	h := c.ShrinkOnReject(1e-3, 8, 2)
	if h >= 1e-3 || h < 1e-4 {
		t.Fatalf("ShrinkOnReject = %g", h)
	}
	if got := c.ShrinkOnReject(2e-9, 1e9, 2); got != 1e-9 {
		t.Fatalf("Shrink floors at HMin: %g", got)
	}
	if got := c.ClampStep(1, 1e-3); got != 2e-3 {
		t.Fatalf("growth cap: %g", got)
	}
	if got := c.ClampStep(1e-12, 1e-3); got != 1e-9 {
		t.Fatalf("HMin clamp: %g", got)
	}
	if got := c.ClampStep(0.5, 0); got != 0.5 {
		t.Fatalf("no previous step: %g", got)
	}
}

func TestDefaultControl(t *testing.T) {
	c := DefaultControl(1e-6)
	if c.TrTol != 7 || c.GrowthCap != 2 {
		t.Fatalf("defaults: %+v", c)
	}
	if c.HMax != 5e-8 || math.Abs(c.HMin-1e-18) > 1e-24 {
		t.Fatalf("bounds: %+v", c)
	}
}

func TestSpacedTail(t *testing.T) {
	h := &History{}
	for _, tv := range []float64{0, 1.0, 1.8, 1.96, 2.0} { // trailing cluster
		h.Add(pt(tv, tv, 0, 0))
	}
	// minSep 0.5: newest always in; 1.96 and 1.8 skipped (too close to 2.0
	// and then 1.0 is the next spaced one), 1.0 in, 0 in.
	got := h.SpacedTail(4, 0.5)
	want := []float64{0, 1.0, 2.0}
	if len(got) != len(want) {
		t.Fatalf("spaced tail times: got %d points", len(got))
	}
	for i, p := range got {
		if p.T != want[i] {
			t.Fatalf("spaced tail[%d] = %g, want %g", i, p.T, want[i])
		}
	}
	// k limits the count from the newest side.
	got = h.SpacedTail(2, 0.5)
	if len(got) != 2 || got[1].T != 2.0 || got[0].T != 1.0 {
		t.Fatalf("k-limited tail: %v %v", got[0].T, got[1].T)
	}
	// minSep 0 degenerates to Tail.
	if got := h.SpacedTail(3, 0); len(got) != 3 || got[2].T != 2.0 || got[1].T != 1.96 {
		t.Fatal("zero minSep should keep clustered points")
	}
	// Empty history.
	empty := &History{}
	if len(empty.SpacedTail(3, 1)) != 0 {
		t.Fatal("empty history")
	}
}

func TestNextStepSemantics(t *testing.T) {
	c := Control{Tol: num.DefaultTolerances(), TrTol: 7, HMin: 1e-12, HMax: 1, GrowthCap: 2}
	// No LTE information: HMax (cap applied by the caller).
	if got := c.NextStep(Gear2, 2, 0, 1e-3, 1e-3, 1e-3); got != c.HMax {
		t.Fatalf("zero norm -> %g", got)
	}
	// Norm 1 at uniform spacing: next step ≈ 0.9·h (the safety factor).
	got := c.NextStep(Gear2, 2, 1, 1e-3, 1e-3, 1e-3)
	if math.Abs(got-0.9e-3) > 0.05e-3 {
		t.Fatalf("norm-1 next step = %g, want ≈0.9e-3", got)
	}
	// Clustered trailing spacing must allow a larger step than uniform —
	// the backward-pipelining coefficient gain, end to end.
	clustered := c.NextStep(Gear2, 2, 1, 1e-3, 1e-3, 2e-4)
	if clustered <= got {
		t.Fatalf("clustered %g not above uniform %g", clustered, got)
	}
	if ratio := clustered / got; ratio < 1.15 || ratio > 1.45 {
		t.Fatalf("coefficient gain ratio = %g, want ≈1.27 at δ=h/5", ratio)
	}
}

// A full history, and a scratch history refilled from it, add in place: the
// pipeline copies and extends one every stage. Each measured call adds a
// window's worth of points, so trimming by reslicing — which reallocates
// once the slice has walked off its array — would show.
func TestFullHistoryAddsInPlace(t *testing.T) {
	pts := make([]*Point, 512)
	for i := range pts {
		pts[i] = pt(float64(i), 0, 0, 0)
	}
	var h, scratch History
	for _, p := range pts[:HistoryDepth] {
		h.Add(p)
	}
	next := HistoryDepth
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < HistoryDepth; i++ {
			if ev := h.Add(pts[next]); ev != pts[next-HistoryDepth] {
				t.Fatalf("evicted %v, want the oldest point", ev)
			}
			next++
			scratch.CopyFrom(&h)
			scratch.Add(pts[next])
		}
	})
	if allocs != 0 || h.Len() != HistoryDepth || scratch.Len() != HistoryDepth || scratch.Last() != pts[next] {
		t.Fatalf("%v allocs per window, lengths %d/%d", allocs, h.Len(), scratch.Len())
	}
}
