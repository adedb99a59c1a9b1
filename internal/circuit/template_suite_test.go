package circuit_test

import (
	"math"
	"math/rand"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
)

// TestTemplatedLoadMatchesSweepOnSuite: on every suite circuit, at several
// iterates and Alpha0 values, a load through the stamp template assembles
// what the full device sweep assembles — M (and a split load's MC) entrywise
// and F and Q normwise to circuit.TemplateTol, and B, Limited and SNext in
// every bit. The rows are limited loads with and without a gmin-stepping
// conductance, a NoLimit load, a source-stepping load and an AC split load,
// whose M is read as AC reads it, unmaterialized. Both workspaces flip their
// limiting state after every load, so the limited iterations see the same
// history. Some loads must clamp a junction, or the limited path went
// unchecked. The worst reading per row kind is logged; it is 9.4e-15 for
// every kind.
func TestTemplatedLoadMatchesSweepOnSuite(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	limited := 0
	worst := map[string]float64{}
	for _, b := range circuits.Suite() {
		sys, err := b.Make().Build()
		if err != nil {
			t.Fatal(err)
		}
		ws, ref := sys.NewWorkspace(), circuit.NewSweepWorkspace(sys)
		x := make([]float64, sys.N)
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
			for _, row := range []struct {
				kind string
				p    circuit.LoadParams
			}{
				{"limited", circuit.LoadParams{Time: 1e-9, Alpha0: 0, Gmin: circuit.JunctionGmin, SrcScale: 1}},
				{"limited", circuit.LoadParams{Time: 2e-9, Alpha0: 1e9, Gmin: circuit.JunctionGmin, SrcScale: 1}},
				{"limited", circuit.LoadParams{Time: 3e-9, Alpha0: 3.7e11, Gmin: circuit.JunctionGmin, SrcScale: 1, NodeGmin: 1e-3}},
				{"NoLimit", circuit.LoadParams{Time: 4e-9, Alpha0: 1e9, Gmin: circuit.JunctionGmin, SrcScale: 1, NoLimit: true}},
				{"source stepping", circuit.LoadParams{Time: 5e-9, Gmin: circuit.JunctionGmin, SrcScale: 0.37}},
				{"split", circuit.LoadParams{Time: 6e-9, Gmin: circuit.JunctionGmin, SrcScale: 1}},
			} {
				p := row.p
				where := func() string { return b.Name + ", " + row.kind + " load" }
				type vec struct {
					what      string
					got, want []float64
					normwise  bool
				}
				var vecs []vec
				if row.kind == "split" {
					ws.LoadSplit(x, p)
					ref.LoadSplit(x, p)
					vecs = []vec{{"M", ws.M.Values, ref.M.Values, false}, {"MC", ws.MC.Values, ref.MC.Values, false}}
				} else {
					ws.Load(x, p)
					ref.Load(x, p)
					vecs = []vec{{"M", ws.Matrix().Values, ref.Matrix().Values, false}}
				}
				vecs = append(vecs, vec{"F", ws.F, ref.F, true}, vec{"Q", ws.Q, ref.Q, true})
				for _, v := range vecs {
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
						worst[row.kind] = math.Max(worst[row.kind], rel)
						if rel > circuit.TemplateTol {
							t.Fatalf("%s, iterate %d, Alpha0 %g: %s[%d] = %g, the sweep %g (relative %.3g)",
								where(), iter, p.Alpha0, v.what, i, got, want, rel)
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
								where(), iter, p.Alpha0, v.what, i, math.Float64bits(got), math.Float64bits(want))
						}
					}
				}
				if ws.Limited != ref.Limited {
					t.Fatalf("%s, iterate %d, Alpha0 %g: Limited = %v, the sweep %v", where(), iter, p.Alpha0, ws.Limited, ref.Limited)
				}
				if ws.Limited {
					limited++
				}
				ws.FlipState()
				ref.FlipState()
			}
		}
	}
	for _, kind := range []string{"limited", "NoLimit", "source stepping", "split"} {
		t.Logf("%s loads: worst relative difference %.3g", kind, worst[kind])
	}
	if limited == 0 {
		t.Fatal("no load clamped a junction")
	}
}
