package wavepipe

import (
	"testing"

	"wavepipe/internal/transient"
	"wavepipe/internal/waveform"
)

// TestParallelWorkersRaceAndEquivalence forces the truly concurrent stage
// gang (see runForced; normally serialized on hosts with fewer cores than
// threads) so the
// race detector can inspect the sharing discipline: immutable history
// points, per-worker solvers, coordinator-only acceptance. It also checks
// that the concurrent path produces the same waveform as the sequential
// one.
func TestParallelWorkersRaceAndEquivalence(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBackward, SchemeForward, SchemeCombined} {
		seqRes, err := Run(rectifierSystem(t), Options{
			Base:    transient.Options{TStop: 1e-3},
			Scheme:  scheme,
			Threads: 4,
		})
		if err != nil {
			t.Fatalf("%v sequential: %v", scheme, err)
		}
		parRes, err := runForced(rectifierSystem(t), Options{
			Base:    transient.Options{TStop: 1e-3},
			Scheme:  scheme,
			Threads: 4,
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
