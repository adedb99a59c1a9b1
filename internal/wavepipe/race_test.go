package wavepipe

import (
	"testing"

	"wavepipe/internal/transient"
	"wavepipe/internal/waveform"
)

// TestParallelWorkersRaceAndEquivalence forces the truly concurrent stage
// gang (see forceGang; normally serialized on hosts with fewer cores than
// a stage has points) so the race detector can inspect the sharing
// discipline: immutable history points, per-worker solvers, coordinator-only
// acceptance and recycling. It also checks that the concurrent path produces
// the same waveform as the sequential one.
func TestParallelWorkersRaceAndEquivalence(t *testing.T) {
	schemes := []Scheme{SchemeBackward, SchemeForward}
	var seq []*transient.Result
	for _, scheme := range schemes {
		res, err := Run(rectifierSystem(t), Options{
			Base:   transient.Options{TStop: 1e-3},
			Scheme: scheme,
		})
		if err != nil {
			t.Fatalf("%v sequential: %v", scheme, err)
		}
		seq = append(seq, res)
	}
	forceGang(t)
	for i, scheme := range schemes {
		seqRes := seq[i]
		parRes, err := Run(rectifierSystem(t), Options{
			Base:   transient.Options{TStop: 1e-3},
			Scheme: scheme,
		})
		if err != nil {
			t.Fatalf("%v parallel: %v", scheme, err)
		}
		if seqRes.Stats.Points != parRes.Stats.Points {
			t.Fatalf("%v: point counts differ: %d vs %d",
				scheme, seqRes.Stats.Points, parRes.Stats.Points)
		}
		dev, err := waveform.Compare(parRes.W, seqRes.W, "out")
		if err != nil {
			t.Fatal(err)
		}
		if dev.Max != 0 {
			t.Fatalf("%v: concurrent path diverges from sequential by %g", scheme, dev.Max)
		}
	}
}
