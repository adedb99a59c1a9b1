package wavepipe

// Exact factorization reuse at the facade: the three factorization counters
// account for every request, the trace reconciles with them 1:1, linear
// circuits take one Newton iteration per solve and the periodically excited
// ones refactorize far less often than they accept a point.

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
			if sum := st.FullFactorizations + st.Refactorizations + st.ReusedFactorizations; sum != requests {
				t.Errorf("full %d + refactor %d + reused %d = %d, trace shows %d factorization requests",
					st.FullFactorizations, st.Refactorizations, st.ReusedFactorizations, sum, requests)
			}
			if rc := ReplayTrace(rec.Events()); rc.ReuseHits != st.ReusedFactorizations {
				t.Errorf("trace replays %d reused; Stats say %d", rc.ReuseHits, st.ReusedFactorizations)
			}
			if st.BypassedFactorizations != 0 {
				t.Errorf("retired counter BypassedFactorizations = %d", st.BypassedFactorizations)
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
