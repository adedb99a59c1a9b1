package wavepipe

import (
	"runtime"
	"testing"

	"wavepipe/internal/trace"
	"wavepipe/internal/transient"
)

// Every scheme × width expands into the stage plan documented on stagePlan:
// roles, target times and solver indices, from t = 1 with h = 1 and the
// limit far away unless the case says otherwise.
func TestPlanStage(t *testing.T) {
	type tg = target
	none := noTarget
	// Variables, not constants: the expected times must round as the plan's
	// run-time arithmetic does.
	d, half := 0.2, 0.5
	cases := []struct {
		name         string
		scheme       Scheme
		threads      int
		delta        float64
		flush, hitBp bool
		limit        float64
		main         tg
		backs        []tg
		fwd, fwdBack tg
		fwdHitsBp    bool
	}{
		{name: "flush", scheme: SchemeCombined, threads: 4, delta: d, flush: true, limit: 100,
			main: tg{0, 2}, fwd: none, fwdBack: none},
		{name: "backward2", scheme: SchemeBackward, threads: 2, delta: d, limit: 100,
			main: tg{1, 2}, backs: []tg{{0, 2 - d}}, fwd: none, fwdBack: none},
		{name: "backward3", scheme: SchemeBackward, threads: 3, delta: d, limit: 100,
			main: tg{2, 2}, backs: []tg{{0, 2 - 2*d}, {1, 2 - d}}, fwd: none, fwdBack: none},
		{name: "backward4", scheme: SchemeBackward, threads: 4, delta: d, limit: 100,
			main: tg{3, 2}, backs: []tg{{0, 2 - 3*d}, {1, 2 - 2*d}, {2, 2 - d}}, fwd: none, fwdBack: none},
		// At DeltaRatio 0.5 the second offset lands on the base point and the
		// third before it: both are dropped and the solver indices close up.
		{name: "backward4/crowded", scheme: SchemeBackward, threads: 4, delta: half, limit: 100,
			main: tg{1, 2}, backs: []tg{{0, 2 - half}}, fwd: none, fwdBack: none},
		{name: "backward3/hitBp", scheme: SchemeBackward, threads: 3, delta: d, hitBp: true, limit: 2,
			main: tg{2, 2}, backs: []tg{{0, 2 - 2*d}, {1, 2 - d}}, fwd: none, fwdBack: none},
		{name: "forward2", scheme: SchemeForward, threads: 2, delta: d, limit: 100,
			main: tg{0, 2}, fwd: tg{1, 3}, fwdBack: none},
		{name: "combined2", scheme: SchemeCombined, threads: 2, delta: d, limit: 100,
			main: tg{0, 2}, fwd: tg{1, 3}, fwdBack: none},
		{name: "combined3", scheme: SchemeCombined, threads: 3, delta: d, limit: 100,
			main: tg{0, 2}, backs: []tg{{2, 2 - d}}, fwd: tg{1, 3}, fwdBack: none},
		{name: "combined4", scheme: SchemeCombined, threads: 4, delta: d, limit: 100,
			main: tg{0, 2}, backs: []tg{{2, 2 - d}}, fwd: tg{1, 3}, fwdBack: tg{3, 3 - d}},
		// The forward point lands on the limit; the backward point under it
		// keeps its distance δ = 0.2·h from there.
		{name: "combined4/fwdHitsBp", scheme: SchemeCombined, threads: 4, delta: d, limit: 2.9,
			main: tg{0, 2}, backs: []tg{{2, 2 - d}}, fwd: tg{1, 2.9}, fwdBack: tg{3, 2.9 - d}, fwdHitsBp: true},
		// A limit so close behind main that the forward step would be a
		// sliver: nothing is speculated.
		{name: "combined4/sliver", scheme: SchemeCombined, threads: 4, delta: d, limit: 2.05,
			main: tg{0, 2}, backs: []tg{{2, 2 - d}}, fwd: none, fwdBack: none},
		// Main itself lands on the limit: no speculation across a breakpoint.
		{name: "forward2/hitBp", scheme: SchemeForward, threads: 2, delta: d, hitBp: true, limit: 2,
			main: tg{0, 2}, fwd: none, fwdBack: none},
		// The forward step is cut to 0.25·h by the limit; δ = 0.2·h under it
		// would crowd main, so the forward point goes alone.
		{name: "combined4/crowdedFwd", scheme: SchemeCombined, threads: 4, delta: d, limit: 2.25,
			main: tg{0, 2}, backs: []tg{{2, 2 - d}}, fwd: tg{1, 2.25}, fwdBack: none, fwdHitsBp: true},
	}
	for _, c := range cases {
		o := Options{Scheme: c.scheme, Threads: c.threads, DeltaRatio: c.delta}
		p := planStage(&o, c.flush, 1, 2, c.hitBp, c.limit)
		if p.flush != c.flush || p.hitBp != c.hitBp || p.main != c.main ||
			p.fwd != c.fwd || p.fwdBack != c.fwdBack || p.fwdHitsBp != c.fwdHitsBp {
			t.Errorf("%s: plan %+v, want main %v fwd %v fwdBack %v fwdHitsBp %v",
				c.name, p, c.main, c.fwd, c.fwdBack, c.fwdHitsBp)
		}
		if got := p.backs[:p.nBack]; len(got) != len(c.backs) {
			t.Errorf("%s: backward points %v, want %v", c.name, got, c.backs)
		} else {
			for i := range got {
				if got[i] != c.backs[i] {
					t.Errorf("%s: backward point %d is %v, want %v", c.name, i, got[i], c.backs[i])
				}
			}
		}
	}
}

// The stage gang is hired once per run: the goroutine count stays flat from
// the first stage to the last — no spawn per round — at one above the
// caller's for a two-wide pipeline, and is back where it started after Run.
func TestStageGangIsPersistent(t *testing.T) {
	before := runtime.NumGoroutine()
	var during []int
	res, err := runForced(rectifierSystem(t), Options{
		Base: transient.Options{TStop: 6e-3, OnAccept: func(float64, []float64) {
			during = append(during, runtime.NumGoroutine())
		}},
		Scheme: SchemeForward,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Stages < 200 {
		t.Fatalf("only %d stages: lengthen the run", res.Stats.Stages)
	}
	for i, n := range during {
		if n != before+1 {
			t.Fatalf("accept %d of %d: %d goroutines, want the caller's %d plus one gang member",
				i, len(during), n, before)
		}
	}
	// sched.Pool.Close joins its workers, so the gang is gone when Run returns.
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after Run, %d before", n, before)
	}
}

// One truncation-error decision is one stencil evaluation: every candidate a
// stage judges shows exactly one LTE phase span, the rejected forward point
// included (it used to be measured once for the test and once more for the
// step it leaves behind).
func TestOneLTESpanPerCandidate(t *testing.T) {
	for _, threads := range []int{2, 4} {
		rec := trace.NewRecorder(0)
		_, err := Run(rectifierSystem(t), Options{
			Base:    transient.Options{TStop: 3e-3, Trace: trace.New(rec, 0)},
			Scheme:  SchemeCombined,
			Threads: threads,
		})
		if err != nil {
			t.Fatal(err)
		}
		type key struct {
			stage int32
			t     float64
		}
		spans := map[key]int{}
		accepted := map[int32]bool{} // stages that have published a point
		fwdRejects := 0
		for _, ev := range rec.Events() {
			switch {
			case ev.Kind == trace.KindPhase && ev.Phase == trace.PhaseLTE:
				spans[key{ev.Stage, ev.T}]++
			case ev.Kind == trace.KindAccept:
				accepted[ev.Stage] = true
			case ev.Kind == trace.KindLTEReject && accepted[ev.Stage]:
				// A rejected main point is its stage's first decision; a
				// rejection after an accept is the forward point's.
				fwdRejects++
			}
		}
		for k, n := range spans {
			if n != 1 {
				t.Errorf("%d threads: stage %d judged the candidate at t=%g %d times", threads, k.stage, k.t, n)
			}
		}
		if fwdRejects == 0 {
			t.Errorf("%d threads: no forward point was rejected: the run does not reach the case", threads)
		}
	}
}
