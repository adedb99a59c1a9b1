package wavepipe

import (
	"runtime"
	"testing"
	"time"

	"wavepipe/internal/trace"
	"wavepipe/internal/transient"
)

// Every scheme expands into the stage plan documented on stagePlan: roles,
// target times and solver indices, from t = 1 with h = 1 and the limit far
// away unless the case says otherwise.
func TestPlanStage(t *testing.T) {
	type tg = target
	none := noTarget
	// A variable, not a constant: the expected times must round as the plan's
	// run-time arithmetic does.
	d := 0.2
	cases := []struct {
		name         string
		scheme       Scheme
		flush, hitBp bool
		limit        float64
		main, back   tg
		fwd          tg
		fwdHitsBp    bool
	}{
		{name: "flush", scheme: SchemeForward, flush: true, limit: 100,
			main: tg{0, 2}, back: none, fwd: none},
		{name: "backward", scheme: SchemeBackward, limit: 100,
			main: tg{1, 2}, back: tg{0, 2 - d}, fwd: none},
		{name: "forward", scheme: SchemeForward, limit: 100,
			main: tg{0, 2}, back: none, fwd: tg{1, 3}},
		// The forward point lands on the limit.
		{name: "forward/fwdHitsBp", scheme: SchemeForward, limit: 2.9,
			main: tg{0, 2}, back: none, fwd: tg{1, 2.9}, fwdHitsBp: true},
		// A limit so close behind main that the forward step would be a
		// sliver: nothing is speculated.
		{name: "forward/sliver", scheme: SchemeForward, limit: 2.05,
			main: tg{0, 2}, back: none, fwd: none},
		// Main itself lands on the limit: no speculation across a breakpoint.
		{name: "forward/hitBp", scheme: SchemeForward, hitBp: true, limit: 2,
			main: tg{0, 2}, back: none, fwd: none},
	}
	for _, c := range cases {
		p := planStage(c.scheme, c.flush, 1, 2, c.hitBp, c.limit)
		if p.flush != c.flush || p.hitBp != c.hitBp || p.main != c.main || p.back != c.back ||
			p.fwd != c.fwd || p.fwdHitsBp != c.fwdHitsBp {
			t.Errorf("%s: plan %+v, want main %v back %v fwd %v fwdHitsBp %v",
				c.name, p, c.main, c.back, c.fwd, c.fwdHitsBp)
		}
	}
}

// The stage gang is hired once per run: the goroutine count stays flat from
// the first stage to the last — no spawn per round — at one above the
// caller's for a two-wide pipeline, and is back where it started after Run.
func TestStageGangIsPersistent(t *testing.T) {
	forceGang(t)
	before := runtime.NumGoroutine()
	var during []int
	res, err := Run(rectifierSystem(t), Options{
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
	// sched.Pool.Close joins its workers, so the gang is gone once Run has
	// returned and the member has finished exiting.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() != before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// One truncation-error decision is one stencil evaluation: every candidate a
// stage judges shows exactly one LTE phase span, the rejected forward point
// included (it used to be measured once for the test and once more for the
// step it leaves behind).
func TestOneLTESpanPerCandidate(t *testing.T) {
	rec := trace.NewRecorder(0)
	_, err := Run(rectifierSystem(t), Options{
		Base:   transient.Options{TStop: 3e-3, Trace: trace.New(rec, 0)},
		Scheme: SchemeForward,
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
			t.Errorf("stage %d judged the candidate at t=%g %d times", k.stage, k.t, n)
		}
	}
	if fwdRejects == 0 {
		t.Error("no forward point was rejected: the run does not reach the case")
	}
}
