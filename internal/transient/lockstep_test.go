package transient

import (
	"math"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/integrate"
	"wavepipe/internal/newton"
)

// TestHandDrivenSolveMatchesSolveAt opens a point solve on a lane workspace
// and drives it the way the ensemble does — Begin, then load and Step per
// iteration, then Commit — beside a plain SolveAt of the same points on an
// ordinary workspace. Both run the one iteration body, so the iterate, the
// charge bookkeeping and every counter must agree bit for bit, with the
// incremental assembly engine on as well as off.
func TestHandDrivenSolveMatchesSolveAt(t *testing.T) {
	batched := func(ps *PointSolver, x []float64, p circuit.LoadParams) {
		circuit.BatchLoad([]*circuit.Workspace{ps.WS}, [][]float64{x}, []circuit.LoadParams{p})
	}
	single := func(ps *PointSolver, x []float64, p circuit.LoadParams) { newton.Load(ps.WS, x, p) }
	for _, tc := range []struct {
		name      string
		devBypass bool
		load      func(*PointSolver, []float64, circuit.LoadParams)
	}{
		{"plain", false, batched},
		// The incremental engine lives in Workspace.Load; BatchLoad has none.
		{"devbypass", true, single},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := circuits.InverterChain(50, 1.8).Build()
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{TStop: 25e-9, DeviceBypass: tc.devBypass}.WithDefaults()
			ref := NewPointSolver(sys, opts.Method, opts.Newton, opts.Gmin)
			hand := NewPointSolverOn(sys.NewLaneWorkspaces(1)[0], opts.Method, opts.Newton, opts.Gmin, nil)
			hists := [2]*integrate.History{{}, {}}
			for i, ps := range []*PointSolver{ref, hand} {
				ps.Attach(&opts, int16(i))
				p0, err := InitialPoint(sys, ps, opts)
				if err != nil {
					t.Fatal(err)
				}
				hists[i].Add(p0)
			}
			// 0.6 ns in 10 ps steps: a quiet stretch, then the input edge.
			for k := 1; k <= 60; k++ {
				tNew := float64(k) * 10e-12
				want, _, err := ref.SolveAt(hists[0], tNew, nil)
				if err != nil {
					t.Fatalf("SolveAt(%g): %v", tNew, err)
				}
				if err := hand.Begin(hists[1], tNew); err != nil {
					t.Fatalf("Begin(%g): %v", tNew, err)
				}
				for done := false; !done; {
					x, p := hand.LoadArgs()
					tc.load(hand, x, p)
					if done, err = hand.Step(); err != nil {
						t.Fatalf("Step at %g: %v", tNew, hand.Fail(err))
					}
				}
				got := hand.Commit()
				for i := range want.X {
					if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) ||
						math.Float64bits(got.Q[i]) != math.Float64bits(want.Q[i]) ||
						math.Float64bits(got.Qdot[i]) != math.Float64bits(want.Qdot[i]) {
						t.Fatalf("t=%g unknown %d: hand-driven (%g, %g, %g), SolveAt (%g, %g, %g)", tNew, i,
							got.X[i], got.Q[i], got.Qdot[i], want.X[i], want.Q[i], want.Qdot[i])
					}
				}
				if hand.LastIters != ref.LastIters {
					t.Fatalf("t=%g: %d iterations hand-driven, %d in SolveAt", tNew, hand.LastIters, ref.LastIters)
				}
				hists[0].Add(want)
				hists[1].Add(got)
			}
			ref.HarvestSolverStats()
			hand.HarvestSolverStats()
			r, h := ref.Stats, hand.Stats
			r.CriticalNanos, h.CriticalNanos = 0, 0 // a lockstep solve has no span
			if r != h {
				t.Fatalf("counters differ:\nhand-driven %+v\nSolveAt     %+v", h, r)
			}
			if tc.devBypass && r.LinearStampHits == 0 {
				t.Fatal("the linear template never hit: the case proves nothing")
			}
		})
	}
}
