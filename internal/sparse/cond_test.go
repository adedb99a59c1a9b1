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
		lu, err := Factorize(m)
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
