package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func TestSolveTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(20)
		d, b := randSparseSystem(rng, n, 0.25)
		m := FromDense(d)
		lu, err := Factorize(m, OrderMinDegree, DefaultPivotTolerance)
		if err != nil {
			continue
		}
		x := make([]float64, n)
		scratch := make([]float64, n)
		lu.SolveTransposeWith(b, x, scratch)
		// Verify Aᵀ·x = b directly.
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += d[i][j] * x[i]
			}
			if math.Abs(s-b[j]) > 1e-7*(1+math.Abs(b[j])) {
				t.Fatalf("trial %d: (Aᵀx)[%d] = %g, want %g", trial, j, s, b[j])
			}
		}
	}
}

func TestOneNorm(t *testing.T) {
	m := FromDense([][]float64{
		{1, -4},
		{-2, 3},
	})
	if got := m.OneNorm(); got != 7 {
		t.Fatalf("OneNorm = %g, want 7", got)
	}
}

// denseCond1 computes the exact 1-norm condition number by brute force.
func denseCond1(a [][]float64) float64 {
	n := len(a)
	norm := func(m [][]float64) float64 {
		best := 0.0
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += math.Abs(m[i][j])
			}
			if s > best {
				best = s
			}
		}
		return best
	}
	inv := make([][]float64, n)
	for j := range inv {
		inv[j] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		e := make([]float64, n)
		e[j] = 1
		col, ok := denseSolve(a, e)
		if !ok {
			return math.Inf(1)
		}
		for i := range col {
			inv[i][j] = col[i]
		}
	}
	return norm(a) * norm(inv)
}

func TestCondEst1AgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(15)
		d, _ := randSparseSystem(rng, n, 0.3)
		m := FromDense(d)
		lu, err := Factorize(m, OrderMinDegree, DefaultPivotTolerance)
		if err != nil {
			continue
		}
		est := CondEst1(m, lu)
		exact := denseCond1(d)
		// Hager's estimate is a lower bound, usually within a small factor.
		if est > exact*(1+1e-9) {
			t.Fatalf("trial %d: estimate %g above exact %g", trial, est, exact)
		}
		if est < exact/10 {
			t.Fatalf("trial %d: estimate %g far below exact %g", trial, est, exact)
		}
	}
}

func TestCondEst1FlagsIllConditioning(t *testing.T) {
	// Nearly singular: two almost-parallel rows.
	d := [][]float64{
		{1, 1, 0},
		{1, 1 + 1e-9, 0},
		{0, 0, 1},
	}
	m := FromDense(d)
	lu, err := Factorize(m, OrderNatural, DefaultPivotTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if est := CondEst1(m, lu); est < 1e8 {
		t.Fatalf("near-singular condition estimate = %g, want huge", est)
	}
	// Identity: κ = 1.
	id := FromDense([][]float64{{1, 0}, {0, 1}})
	lu2, _ := Factorize(id, OrderNatural, DefaultPivotTolerance)
	if est := CondEst1(id, lu2); math.Abs(est-1) > 1e-9 {
		t.Fatalf("identity condition estimate = %g", est)
	}
}
