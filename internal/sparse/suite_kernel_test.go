package sparse_test

import (
	"math"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/sparse"
)

// TestRefactorKernelMatchesReferenceOnSuite runs the compiled refactor kernel
// against the reference sweep on the matrix of every evaluation circuit,
// assembled at a transient-like operating point: the sweep must reproduce
// the reference factors bit for bit.
func TestRefactorKernelMatchesReferenceOnSuite(t *testing.T) {
	for _, b := range circuits.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			ws := sys.NewWorkspace()
			x := make([]float64, sys.N)
			for i := range x {
				x[i] = 0.1 * float64(i%5)
			}
			p := circuit.LoadParams{Alpha0: 1e9, Gmin: 1e-12, SrcScale: 1}
			ws.Load(x, p)
			if err := ws.Solver.Factorize(); err != nil {
				t.Fatal(err)
			}
			lu, m := ws.Solver.LU(), ws.Solver.M
			for round := 0; round < 2; round++ {
				// A second assembly at a moved iterate and step: new values on
				// the same pattern, as the next Newton iteration brings.
				for i := range x {
					x[i] += 0.05
				}
				p.Alpha0 *= 1.7
				ws.Load(x, p)
				lx, ux, ud, ok := sparse.RefactorReference(lu, m)
				if !ok {
					t.Fatal("reference sweep hit a degenerate pivot")
				}
				if err := lu.Refactor(m); err != nil {
					t.Fatal(err)
				}
				glx, gux, gud := lu.Factors()
				for _, c := range []struct {
					name      string
					got, want []float64
				}{{"lx", glx, lx}, {"ux", gux, ux}, {"ud", gud, ud}} {
					for i := range c.want {
						if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
							t.Fatalf("round %d: %s[%d] = %x, reference %x",
								round, c.name, i, math.Float64bits(c.got[i]), math.Float64bits(c.want[i]))
						}
					}
				}
			}
		})
	}
}
