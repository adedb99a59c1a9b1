package num

import (
	"math"
	"math/rand"
	"testing"
)

func TestWeight(t *testing.T) {
	tol := Tolerances{RelTol: 1e-3, AbsTol: 1e-6}
	if got := tol.Weight(0); got != 1e-6 {
		t.Fatalf("Weight(0) = %g, want 1e-6", got)
	}
	if got := tol.Weight(-2); math.Abs(got-(2e-3+1e-6)) > 1e-18 {
		t.Fatalf("Weight(-2) = %g", got)
	}
}

func TestWeightedNorms(t *testing.T) {
	tol := Tolerances{RelTol: 0.1, AbsTol: 1}
	err := []float64{1, -2, 0}
	ref := []float64{0, 10, 5}
	// weights: 1, 2, 1.5 -> ratios 1, 1, 0
	if got := tol.WeightedMaxNorm(err, ref); math.Abs(got-1) > 1e-15 {
		t.Fatalf("max norm = %g, want 1", got)
	}
	if got := tol.WeightedMaxNorm(nil, nil); got != 0 {
		t.Fatalf("empty max norm = %g", got)
	}
}

func TestCopy(t *testing.T) {
	y := []float64{3, -1}
	c := Copy(y)
	c[0] = 99
	if y[0] != 3 {
		t.Fatal("Copy aliases input")
	}
}

func TestDividedDifferencesQuadratic(t *testing.T) {
	// f(t) = 2t² - 3t + 1: dd[0]=f(t0), dd[1]=f[t0,t1], dd[2]=2 (leading coeff).
	f := func(x float64) float64 { return 2*x*x - 3*x + 1 }
	ts := []float64{0.5, 1.25, 3.0}
	ys := []float64{f(ts[0]), f(ts[1]), f(ts[2])}
	dd := make([]float64, len(ts))
	DividedDifferencesInto(ts, ys, dd)
	if math.Abs(dd[2]-2) > 1e-12 {
		t.Fatalf("leading divided difference = %g, want 2", dd[2])
	}
	if math.Abs(dd[0]-f(ts[0])) > 1e-12 {
		t.Fatalf("dd[0] = %g", dd[0])
	}
}

// Property: the order-k divided difference of a degree-(k-1) polynomial is 0,
// and of a degree-k polynomial is its leading coefficient.
func TestDividedDifferencesPolynomialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		deg := 1 + rng.Intn(4)
		coef := make([]float64, deg+1)
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		if math.Abs(coef[deg]) < 1e-3 {
			coef[deg] = 1
		}
		eval := func(x float64) float64 {
			v := 0.0
			for i := deg; i >= 0; i-- {
				v = v*x + coef[i]
			}
			return v
		}
		n := deg + 2
		ts := make([]float64, n)
		ys := make([]float64, n)
		base := rng.Float64()
		for i := range ts {
			ts[i] = base + float64(i)*(0.3+rng.Float64())
			ys[i] = eval(ts[i])
		}
		dd := make([]float64, len(ts))
		DividedDifferencesInto(ts, ys, dd)
		if math.Abs(dd[deg]-coef[deg]) > 1e-6*(1+math.Abs(coef[deg])) {
			t.Fatalf("trial %d: dd[%d] = %g, want leading coeff %g", trial, deg, dd[deg], coef[deg])
		}
		if math.Abs(dd[deg+1]) > 1e-6 {
			t.Fatalf("trial %d: dd[%d] = %g, want 0", trial, deg+1, dd[deg+1])
		}
	}
}

func TestPredictVectorAt(t *testing.T) {
	ts := []float64{0, 1}
	hist := [][]float64{{1, 10}, {2, 20}}
	dst := make([]float64, 2)
	PredictVectorAtWith(ts, hist, 2, dst, nil, nil)
	if dst[0] != 3 || dst[1] != 30 {
		t.Fatalf("linear extrapolation = %v", dst)
	}
	PredictVectorAtWith(ts[:1], hist[:1], 5, dst, nil, nil)
	if dst[0] != 1 || dst[1] != 10 {
		t.Fatalf("constant extrapolation = %v", dst)
	}
	PredictVectorAtWith(nil, nil, 5, dst, nil, nil)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("empty history should zero dst: %v", dst)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp broken")
	}
}

func TestEqualWithin(t *testing.T) {
	if !EqualWithin(1e9, 1e9+1, 1e-6) {
		t.Fatal("scale-aware comparison should accept")
	}
	if EqualWithin(0, 1, 1e-6) {
		t.Fatal("should reject")
	}
}

// triangleOracle is the per-component computation the vector kernels
// replace: gather component i, run the generic triangle, and return the
// Newton-form value at t and the top coefficient.
func triangleOracle(ts []float64, vs [][]float64, i int, t float64) (pred, top float64) {
	n := len(ts)
	ys, c := make([]float64, n), make([]float64, n)
	for j := range ys {
		ys[j] = vs[j][i]
	}
	DividedDifferencesInto(ts, ys, c)
	v := c[n-1]
	for j := n - 2; j >= 0; j-- {
		v = v*(t-ts[j]) + c[j]
	}
	return v, c[n-1]
}

// TestVectorKernelsMatchTheTriangle: PredictVectorAtWith and
// TopDifferenceNorm compute the triangle's denominators once per call and
// unroll it over the vectors for the stencils the engines use; the results
// must be DividedDifferencesInto's in every bit, for two to five points (the
// unrolled lengths and the gathering fallback on either side), on random
// time stamps and on the clustered ones backward pipelining produces (a
// point at δ = 0.2·h, or 0.05·h, behind its successor).
func TestVectorKernelsMatchTheTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	tol := DefaultTolerances()
	const nUnk = 257
	for trial := 0; trial < 400; trial++ {
		for n := 2; n <= 5; n++ {
			ts := make([]float64, n)
			ts[0] = math.Ldexp(rng.Float64(), rng.Intn(40)-30)
			h := ts[0] * math.Ldexp(1+rng.Float64(), -rng.Intn(30))
			for j := 1; j < n; j++ {
				step := h * (0.5 + rng.Float64())
				switch trial % 3 {
				case 1:
					if j%2 == 0 {
						step = 0.2 * h
					}
				case 2:
					if j%2 == 1 {
						step = 0.05 * h
					}
				}
				ts[j] = ts[j-1] + step
			}
			at := ts[n-1] + h*rng.Float64()
			vs := make([][]float64, n)
			for j := range vs {
				vs[j] = make([]float64, nUnk)
				for i := range vs[j] {
					// A smooth trend plus noise at the tolerance scale,
					// components spread over twelve decades.
					scale := math.Pow(10, float64(i%12)-8)
					vs[j][i] = scale * (math.Sin(float64(i)+1e3*ts[j]) + 1e-4*rng.NormFloat64())
				}
			}
			ref := vs[n-1]
			fact := 1.0
			for k := 2; k < n; k++ {
				fact *= float64(k)
			}

			dst := make([]float64, nUnk)
			PredictVectorAtWith(ts, vs, at, dst, make([]float64, n), make([]float64, n))
			wantNorm := 0.0
			for i := range dst {
				pred, top := triangleOracle(ts, vs, i, at)
				if math.Float64bits(dst[i]) != math.Float64bits(pred) {
					t.Fatalf("n=%d trial %d: prediction[%d] = %x, triangle gives %x", n, trial, i,
						math.Float64bits(dst[i]), math.Float64bits(pred))
				}
				if v := math.Abs(top*fact) / tol.Weight(ref[i]); v > wantNorm {
					wantNorm = v
				}
			}
			got := tol.TopDifferenceNorm(ts, vs, fact, ref, make([]float64, n), make([]float64, n))
			if math.Float64bits(got) != math.Float64bits(wantNorm) {
				t.Fatalf("n=%d trial %d: top-difference norm %x, triangle gives %x", n, trial,
					math.Float64bits(got), math.Float64bits(wantNorm))
			}
		}
	}
}
