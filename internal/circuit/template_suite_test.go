package circuit_test

import (
	"math"
	"math/rand"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
)

// templateTol bounds how far a templated load's M, F and Q may sit from the
// full sweep's: the template adds the same stamps in another order, so the
// two differ by the rounding of a few additions. An entry of M is held to it
// relative to its own magnitude; an entry of F or Q relative to the largest
// entry of its vector, since the currents into a node cancel to far below the
// terms they are summed from. The suite's worst reading is 9.4e-15 (nand5).
const templateTol = 1e-12

// TestTemplatedLoadMatchesSweepOnSuite: on every suite circuit, at several
// iterates and Alpha0 values, a load through the stamp template assembles
// what the full device sweep assembles — M, F and Q to templateTol, and B,
// Limited and SNext in every bit. Both workspaces flip their limiting state
// after every load, so the limited iterations see the same history, and the
// loads run with and without a gmin-stepping conductance. Some of them must
// clamp a junction, or the limited path went unchecked.
func TestTemplatedLoadMatchesSweepOnSuite(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	limited := 0
	for _, b := range circuits.Suite() {
		sys, err := b.Make().Build()
		if err != nil {
			t.Fatal(err)
		}
		ws, ref := sys.NewWorkspace(), circuit.NewSweepWorkspace(sys)
		x := make([]float64, sys.N)
		worst := 0.0
		for iter := 0; iter < 4; iter++ {
			for i := range x {
				switch iter {
				case 0:
					x[i] = 1.8 * float64(i*7919%1000) / 1000
				case 3:
					x[i] += 1e-3 * (rng.Float64() - 0.5) // one Newton update away
				default:
					x[i] = 2.2*rng.Float64() - 0.2
				}
			}
			for _, p := range []circuit.LoadParams{
				{Time: 1e-9, Alpha0: 0, Gmin: circuit.JunctionGmin, SrcScale: 1},
				{Time: 2e-9, Alpha0: 1e9, Gmin: circuit.JunctionGmin, SrcScale: 1},
				{Time: 3e-9, Alpha0: 3.7e11, Gmin: circuit.JunctionGmin, SrcScale: 1, NodeGmin: 1e-3},
			} {
				ws.Load(x, p)
				ref.Load(x, p)
				for _, v := range []struct {
					what      string
					got, want []float64
					normwise  bool
				}{{"M", ws.Matrix().Values, ref.Matrix().Values, false}, {"F", ws.F, ref.F, true}, {"Q", ws.Q, ref.Q, true}} {
					norm := 0.0
					for _, want := range v.want {
						norm = math.Max(norm, math.Abs(want))
					}
					for i, want := range v.want {
						got := v.got[i]
						d := math.Abs(got - want)
						if d == 0 {
							continue
						}
						scale := math.Max(math.Abs(got), math.Abs(want))
						if v.normwise {
							scale = norm
						}
						rel := d / scale
						worst = math.Max(worst, rel)
						if rel > templateTol {
							t.Fatalf("%s, iterate %d, Alpha0 %g: %s[%d] = %g, the sweep %g (relative %.3g)",
								b.Name, iter, p.Alpha0, v.what, i, got, want, rel)
						}
					}
				}
				for _, v := range []struct {
					what      string
					got, want []float64
				}{{"B", ws.B, ref.B}, {"SNext", ws.SNext, ref.SNext}} {
					for i, want := range v.want {
						if got := v.got[i]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s, iterate %d, Alpha0 %g: %s[%d] = %x, the sweep %x",
								b.Name, iter, p.Alpha0, v.what, i, math.Float64bits(got), math.Float64bits(want))
						}
					}
				}
				if ws.Limited != ref.Limited {
					t.Fatalf("%s, iterate %d, Alpha0 %g: Limited = %v, the sweep %v", b.Name, iter, p.Alpha0, ws.Limited, ref.Limited)
				}
				if ws.Limited {
					limited++
				}
				ws.FlipState()
				ref.FlipState()
			}
		}
		t.Logf("%s: worst relative difference %.3g", b.Name, worst)
	}
	if limited == 0 {
		t.Fatal("no load clamped a junction")
	}
}
