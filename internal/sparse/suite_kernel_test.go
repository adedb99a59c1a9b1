package sparse_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/sparse"
)

// wantPrograms fails unless lu's refactor and forward solve run their op
// programs on every evaluation circuit but the meshes, whose factors plan
// supernode blocks.
func wantPrograms(t *testing.T, name string, lu *sparse.LU) {
	t.Helper()
	refactor, solve := sparse.Programs(lu)
	if mesh := strings.HasPrefix(name, "grid"); refactor == mesh || solve == mesh {
		t.Fatalf("op programs: refactor %v, forward solve %v", refactor, solve)
	}
}

// TestRefactorKernelMatchesReferenceOnSuite runs Refactor against the
// reference sweep on the matrix of every evaluation circuit, assembled at a
// transient-like operating point and at moved ones — the op program on nine
// of them, the column sweep on the meshes. The kernel must reproduce the
// reference factors bit for bit, also with exact zeros of either sign among
// the off-diagonal entries and with a NaN in the matrix, or — on those two
// corrupted rounds only — give up at the reference's degenerate pivot.
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
			lu := ws.Solver.LU()
			wantPrograms(t, b.Name, lu)
			rng := rand.New(rand.NewSource(29))
			for round := 0; round < 4; round++ {
				// A second assembly at a moved iterate and step: new values on
				// the same pattern, as the next Newton iteration brings.
				for i := range x {
					x[i] += 0.05
				}
				p.Alpha0 *= 1.7
				ws.Load(x, p)
				m := ws.Solver.Materialize()
				switch round {
				case 2:
					sparse.SignedZeros(rng, lu, m)
				case 3:
					m.Values[rng.Intn(len(m.Values))] = math.NaN()
				}
				lx, ux, ud, bad := sparse.RefactorReference(lu, m)
				err := lu.Refactor(m)
				if bad >= 0 && round < 2 {
					// The matrices of the first two rounds are the circuit's
					// own: their factors must be compared.
					t.Fatalf("round %d: reference sweep hit a degenerate pivot at column %d", round, bad)
				}
				if bad >= 0 {
					if !errors.Is(err, sparse.ErrRefactorPivot) || !strings.HasSuffix(err.Error(), fmt.Sprintf(" at column %d", bad)) {
						t.Fatalf("round %d: reference hit a degenerate pivot at column %d, kernel returned %v", round, bad, err)
					}
					continue
				}
				if err != nil {
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

// TestSolveKernelMatchesReferenceOnSuite runs the solve against the reference
// sweep on the factors of every evaluation circuit — the forward op program
// on nine of them, the planned sweep on the meshes — with a dense right-hand
// side and one of exact zeros of either sign among a few values, and last
// with an infinite entry in every seventh L slot: the solutions must agree
// bit for bit.
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
			wantPrograms(t, b.Name, lu)
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
			for round := 0; round < 3; round++ {
				if round == 2 {
					lx, _, _ := lu.Factors()
					for q := 0; q < len(lx); q += 7 {
						lx[q] = math.Inf(1)
					}
				}
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
