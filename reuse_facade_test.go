package wavepipe

// Exact factorization reuse at the facade: the four factorization counters
// account for every request, the trace reconciles with them 1:1, linear
// circuits take one Newton iteration per solve and the periodically excited
// ones refactorize far less often than they accept a point, and reuse
// composes with the tolerance bypass under Newton's stale-LU guards.

import (
	"testing"

	"wavepipe/internal/circuits"
)

func TestFactorizationAccountingOnSuite(t *testing.T) {
	linear := map[string]bool{"grid16": true, "grid24": true, "grid32": true, "ladder400": true, "rlctree8": true}
	periodic := map[string]bool{"grid16": true, "grid24": true, "grid32": true}
	for _, b := range circuits.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			tstop := b.TStop / 4
			if periodic[b.Name] {
				tstop = b.TStop // ten clock periods: the store needs the first to fill
			}
			rec := NewTraceRecorder(0)
			res, err := RunTransient(sys, TranOptions{
				TStop: tstop, Record: []string{b.Probe}, Observer: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			requests := 0
			for _, ev := range rec.Events() {
				if ev.Kind == TraceKindPhase && ev.Phase == TracePhaseFactor {
					requests++
				}
			}
			st := res.Stats
			if sum := st.FullFactorizations + st.Refactorizations + st.BypassedFactorizations + st.ReusedFactorizations; sum != requests {
				t.Errorf("full %d + refactor %d + bypassed %d + reused %d = %d, trace shows %d factorization requests",
					st.FullFactorizations, st.Refactorizations, st.BypassedFactorizations, st.ReusedFactorizations, sum, requests)
			}
			if rc := ReplayTrace(rec.Events()); rc.ReuseHits != st.ReusedFactorizations || rc.BypassHits != st.BypassedFactorizations {
				t.Errorf("trace replays %d reused, %d bypassed; Stats say %d, %d",
					rc.ReuseHits, rc.BypassHits, st.ReusedFactorizations, st.BypassedFactorizations)
			}
			if st.BypassedFactorizations != 0 {
				t.Errorf("%d bypasses with BypassTol unset", st.BypassedFactorizations)
			}
			if sys.Linear() != linear[b.Name] {
				t.Fatalf("Build finds Linear() = %v", sys.Linear())
			}
			// On a linear circuit the first Newton step is the solution.
			if linear[b.Name] && st.NRIters != st.Solves {
				t.Errorf("linear circuit took %d Newton iterations over %d solves", st.NRIters, st.Solves)
			}
			// Its matrix depends on the step alone, and under a clock the
			// steps of one period are the steps of the next: past the first
			// period and a half a point solve finds its factorization in the
			// store.
			if periodic[b.Name] && 4*st.Refactorizations > st.Points {
				t.Errorf("periodically excited linear circuit refactorized %d times over %d points",
					st.Refactorizations, st.Points)
			}
		})
	}
}

// TestReuseComposesWithBypassTol: with the tolerance bypass on, a linear mesh
// still reuses exactly (never counted as a bypass), the run stays inside the
// bypass accuracy bar, and it is deterministic.
func TestReuseComposesWithBypassTol(t *testing.T) {
	sys, opts := suiteSystem(t, "grid16")
	ref, err := RunTransient(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	bp := opts
	bp.BypassTol = 1e-3
	res, err := RunTransient(sys, bp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReusedFactorizations == 0 {
		t.Fatal("no exact reuse with BypassTol set")
	}
	dev, err := Compare(res.W, ref.W, opts.Record[0])
	if err != nil {
		t.Fatal(err)
	}
	if dev.RelMax() > 0.02 {
		t.Fatalf("deviates by %g of signal range", dev.RelMax())
	}
	again, err := RunTransient(sys, bp)
	if err != nil {
		t.Fatal(err)
	}
	sameWaveform(t, "bypass+reuse rerun", again, res)
	if again.Stats.ReusedFactorizations != res.Stats.ReusedFactorizations ||
		again.Stats.BypassedFactorizations != res.Stats.BypassedFactorizations {
		t.Fatalf("counters moved between identical runs: %+v vs %+v", again.Stats, res.Stats)
	}
}
