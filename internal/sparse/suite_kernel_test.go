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

// TestSolveKernelMatchesReferenceOnSuite runs the planned solve against the
// reference sweep on the factors of every evaluation circuit, with a dense
// right-hand side and one of exact zeros of either sign among a few values:
// the solutions must agree bit for bit.
func TestSolveKernelMatchesReferenceOnSuite(t *testing.T) {
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
			lu := ws.Solver.LU()
			dense, zeros := make([]float64, sys.N), make([]float64, sys.N)
			for i := range dense {
				dense[i] = 1.8 * float64(i*7919%1000) / 1000
				switch i % 3 {
				case 0:
					zeros[i] = math.Copysign(0, -1)
				case 1:
					zeros[i] = dense[i]
				}
			}
			for round := 0; round < 2; round++ {
				for v, rhs := range [][]float64{dense, zeros} {
					want, got, w := make([]float64, sys.N), make([]float64, sys.N), make([]float64, sys.N)
					sparse.SolveReference(lu, rhs, want, w)
					lu.SolveWith(rhs, got, w)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("round %d rhs %d: x[%d] = %x, reference %x",
								round, v, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
				// The same pattern refactored at a moved iterate and step.
				for i := range x {
					x[i] += 0.05
				}
				p.Alpha0 *= 1.7
				ws.Load(x, p)
				if err := lu.Refactor(ws.Solver.Materialize()); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
