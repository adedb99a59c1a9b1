package sparse

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Complex systems (G + jωC)x = b are solved as their real 2N equivalent
// [G −ωC; ωC G][xr; xi] = [br; bi] by the one real LU. These tests hold that
// solve to the complex residual, computed from G and C directly rather than
// from the assembled 2N matrix.

// realEquivalentOf assembles [G −ωC; ωC G] for G and C on one pattern.
func realEquivalentOf(g, c *Matrix, omega float64) *Matrix {
	n := g.N()
	b := NewBuilder(2 * n)
	each := func(visit func(i, j int, v float64)) {
		for j := 0; j < n; j++ {
			for p := g.ColPtr[j]; p < g.ColPtr[j+1]; p++ {
				i := g.RowIdx[p]
				w := omega * c.Values[p]
				visit(i, j, g.Values[p])
				visit(n+i, n+j, g.Values[p])
				visit(i, n+j, -w)
				visit(n+i, j, w)
			}
		}
	}
	each(func(i, j int, _ float64) { b.Reserve(i, j) })
	m := b.Compile()
	each(func(i, j int, v float64) { m.Add(m.SlotAt(i, j), v) })
	return m
}

// complexResidual returns the largest |(G + jωC)x − b|_i / (1 + |b_i|) for
// x and b split into real and imaginary halves.
func complexResidual(g, c *Matrix, omega float64, x, b []float64) float64 {
	n := g.N()
	gr, gi := make([]float64, n), make([]float64, n)
	cr, ci := make([]float64, n), make([]float64, n)
	g.MulVec(x[:n], gr)
	g.MulVec(x[n:], gi)
	c.MulVec(x[:n], cr)
	c.MulVec(x[n:], ci)
	worst := 0.0
	for i := 0; i < n; i++ {
		r := complex(gr[i]-omega*ci[i], gi[i]+omega*cr[i])
		bi := complex(b[i], b[n+i])
		if e := cmplx.Abs(r-bi) / (1 + cmplx.Abs(bi)); e > worst {
			worst = e
		}
	}
	return worst
}

func TestComplexLUSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const omega = 0.7
	solved := 0
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(25)
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
			d[i][i] = 2 + rng.Float64()*4
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.2 {
					d[i][j] = rng.NormFloat64()
				}
			}
		}
		g := FromDense(d)
		// Reactive part on the same pattern.
		c := g.Clone()
		for p := range c.Values {
			c.Values[p] = rng.NormFloat64()
		}
		b := make([]float64, 2*n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		m := realEquivalentOf(g, c, omega)
		lu, err := FactorizeWithPerm(m, ComputeOrdering(m))
		if err != nil {
			continue
		}
		solved++
		x := make([]float64, 2*n)
		lu.Solve(b, x)
		if e := complexResidual(g, c, omega, x, b); e > 1e-7 {
			t.Fatalf("trial %d (n=%d): complex residual %g", trial, n, e)
		}
	}
	if solved == 0 {
		t.Fatal("no trial factorized")
	}
}

func TestComplexRefactorAcrossFrequencies(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 15
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		d[i][i] = 3
		if i+1 < n {
			d[i][i+1] = -1
		}
		if i > 0 {
			d[i][i-1] = -1
		}
	}
	g := FromDense(d)
	c := g.Clone()
	for p := range c.Values {
		c.Values[p] = rng.Float64() * 1e-9
	}
	b := make([]float64, 2*n)
	b[0] = 1
	// One pattern for the whole sweep: the solver is built once and each
	// frequency only rewrites the values.
	m := realEquivalentOf(g, c, 0)
	solver := NewSolver(m, ComputeOrdering(m))
	x := make([]float64, 2*n)
	freqs := []float64{1e3, 1e5, 1e7, 1e9}
	for _, freq := range freqs {
		omega := 2 * math.Pi * freq
		copy(m.Values, realEquivalentOf(g, c, omega).Values)
		if err := solver.Factorize(); err != nil {
			t.Fatalf("f=%g: %v", freq, err)
		}
		if err := solver.Solve(b, x); err != nil {
			t.Fatal(err)
		}
		if e := complexResidual(g, c, omega, x, b); e > 1e-8 {
			t.Fatalf("f=%g: complex residual %g", freq, e)
		}
	}
	if solver.FullFactorizations != 1 || solver.Refactorizations != len(freqs)-1 {
		t.Fatalf("full %d, refactor %d: want one factorization refactored at every later frequency",
			solver.FullFactorizations, solver.Refactorizations)
	}
}
