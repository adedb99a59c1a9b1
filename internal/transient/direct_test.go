package transient_test

import (
	"math"
	"testing"

	"wavepipe/internal/circuits"
	"wavepipe/internal/transient"
	"wavepipe/internal/wavepipe"
)

// TestLinearPointIsOneSolve: on every linear suite circuit, serially and
// under both pipelined schemes, solving each point directly for its iterate
// takes the step sequence of the Newton form it replaced — the same points,
// solves, iterations, full factorizations, refactorizations and reuses — and
// accepts every point at the same time and within 1e-12 of the run's largest
// |x| of that form's (the two round differently; the worst, ladder400, is
// 8.6e-13). Backward's bar is 4e-12: its stencil carries a point's error
// on about three times as strongly as serial's (ROADMAP, "Backward's error
// amplification"), and its ladder400 reads 3.2e-12. The Newton form is
// transient.NewtonFormForLinear, which reproduces the waveforms the engines
// pinned before the direct solve bit for bit on the meshes and ladder400;
// rlctree8 differs from those in the rounding of its charges, which both
// forms book through the stamp template.
// -short runs an eighth of each horizon.
func TestLinearPointIsOneSolve(t *testing.T) {
	configs := []struct {
		name   string
		scheme wavepipe.Scheme
		tol    float64 // of the run's largest |x|
	}{{"serial", wavepipe.SchemeSerial, 1e-12}, {"backward2", wavepipe.SchemeBackward, 4e-12}, {"forward2", wavepipe.SchemeForward, 1e-12}}
	for _, b := range circuits.Suite() {
		sys, err := b.Make().Build()
		if err != nil {
			t.Fatal(err)
		}
		if !sys.Linear() {
			continue
		}
		tstop := b.TStop
		if testing.Short() {
			tstop /= 8
		}
		for _, cfg := range configs {
			t.Run(cfg.name+"/"+b.Name, func(t *testing.T) {
				// run bounds the points, so that a direct solve gone wrong
				// fails here rather than crawling to the default limit.
				run := func(t *testing.T, maxPoints int) *transient.Result {
					sys, err := b.Make().Build()
					if err != nil {
						t.Fatal(err)
					}
					base := transient.Options{TStop: tstop, MaxPoints: maxPoints}
					var res *transient.Result
					if cfg.scheme == wavepipe.SchemeSerial {
						res, err = transient.Run(sys, base)
					} else {
						res, err = wavepipe.Run(sys, wavepipe.Options{Base: base, Scheme: cfg.scheme})
					}
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				var newton *transient.Result
				t.Run("newton", func(t *testing.T) {
					transient.NewtonFormForLinear(t)
					newton = run(t, 0)
				})
				if newton == nil {
					t.FailNow()
				}
				direct := run(t, 2*newton.Stats.Points)
				d, n := direct.Stats, newton.Stats
				for _, c := range []struct {
					what      string
					got, want int
				}{
					{"points", d.Points, n.Points}, {"solves", d.Solves, n.Solves}, {"NR iterations", d.NRIters, n.NRIters},
					{"full factorizations", d.FullFactorizations, n.FullFactorizations},
					{"refactorizations", d.Refactorizations, n.Refactorizations},
					{"reuses", d.ReusedFactorizations, n.ReusedFactorizations},
				} {
					if c.got != c.want {
						t.Errorf("%s: %d, the Newton form %d", c.what, c.got, c.want)
					}
				}
				if len(direct.W.Times) != len(newton.W.Times) {
					t.Fatalf("%d points accepted, the Newton form %d", len(direct.W.Times), len(newton.W.Times))
				}
				scale := 0.0
				for _, row := range newton.W.Data {
					for _, v := range row {
						scale = math.Max(scale, math.Abs(v))
					}
				}
				tol := cfg.tol * scale
				for k, tm := range direct.W.Times {
					if tm != newton.W.Times[k] {
						t.Fatalf("point %d at t=%g, the Newton form's at %g", k, tm, newton.W.Times[k])
					}
					for i, v := range direct.W.Data[k] {
						if w := newton.W.Data[k][i]; math.Abs(v-w) > tol {
							t.Fatalf("t=%g: x[%d] = %.17g, the Newton form %.17g (over %.3g)", tm, i, v, w, tol)
						}
					}
				}
			})
		}
	}
}
