package wavepipe

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"wavepipe/internal/circuits"
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
		p := planStage(c.scheme, c.flush, 1, 2, c.hitBp, c.limit, false)
		if p.flush != c.flush || p.hitBp != c.hitBp || p.main != c.main || p.back != c.back ||
			p.fwd != c.fwd || p.fwdHitsBp != c.fwdHitsBp {
			t.Errorf("%s: plan %+v, want main %v back %v fwd %v fwdHitsBp %v",
				c.name, p, c.main, c.back, c.fwd, c.fwdHitsBp)
		}
	}
}

// On a linear system the backward offset is on the step grid: δ is 0.2·h
// rounded as a step is, and the backward point sits exactly δ under main, so
// a stage that repeats a step repeats the backward point's Alpha0 too.
func TestBackwardPointOnTheStepGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 1000; trial++ {
		tBase := transient.RoundStep(rng.Float64() * 1e-7)
		h := transient.RoundStep(math.Ldexp(1+rng.Float64(), -40-rng.Intn(10)))
		tMain := tBase + h
		p := planStage(SchemeBackward, false, tBase, tMain, false, 1, true)
		delta := transient.RoundStep(deltaRatio * (tMain - tBase))
		if p.back.t != tMain-delta || tMain-p.back.t != delta {
			t.Fatalf("t=%g h=%g: backward point %g is %g under main, want δ=%g exactly",
				tBase, h, p.back.t, tMain-p.back.t, delta)
		}
		if nl := planStage(SchemeBackward, false, tBase, tMain, false, 1, false); nl.back.t != tMain-deltaRatio*(tMain-tBase) {
			t.Fatalf("t=%g h=%g: a nonlinear system's backward point moved to %g", tBase, h, nl.back.t)
		}
	}
}

// The stage gang is hired once per run: from the first stage to the last the
// run adds exactly one goroutine to those alive before it — the gang member
// of a two-wide pipeline, the same one at every accept, so no spawn per round
// — and that member is gone after Run. Goroutines are told apart by ID, so one
// left exiting by an earlier test cannot shift the count.
func TestStageGangIsPersistent(t *testing.T) {
	forceGang(t)
	buf := make([]byte, 1<<20)
	before := goroutineStacks(buf)
	member := ""
	var accepts, stray int
	res, err := Run(rectifierSystem(t), Options{
		Base: transient.Options{TStop: 6e-3, OnAccept: func(float64, []float64) {
			accepts++
			var added []string
			for id, stack := range goroutineStacks(buf) {
				if _, ok := before[id]; !ok {
					added = append(added, id)
					if member == "" && strings.Contains(stack, "created by wavepipe/internal/sched.NewPool") {
						member = id
					}
				}
			}
			if len(added) != 1 || added[0] != member {
				stray++
			}
		}},
		Scheme: SchemeForward,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Stages < 200 {
		t.Fatalf("only %d stages: lengthen the run", res.Stats.Stages)
	}
	if member == "" || stray > 0 {
		t.Fatalf("%d of %d accepts saw other goroutines than the one gang member (%q) beside the caller's",
			stray, accepts, member)
	}
	// sched.Pool.Close joins its workers, so the gang is gone once Run has
	// returned and the member has finished exiting.
	for deadline := time.Now().Add(time.Second); ; runtime.Gosched() {
		if _, alive := goroutineStacks(buf)[member]; !alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gang member %s still alive after Run", member)
		}
	}
}

// goroutineStacks maps the ID of every live goroutine to its stack trace,
// dumped into buf.
func goroutineStacks(buf []byte) map[string]string {
	out := map[string]string{}
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		out[id] = g
	}
	return out
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

// A pipelined stage hands the step controller the norm it judged each point
// by, so every accept of a Backward stage on grid16 reports an LTE norm in
// (0, 1]. A flush stage (one worker span: the refill after the start or a
// restart) is left out: its first points are judged by no stencil.
func TestPipelinedAcceptsCarryTheirNorm(t *testing.T) {
	var grid circuits.Benchmark
	for _, b := range circuits.Suite() {
		if b.Name == "grid16" {
			grid = b
		}
	}
	sys, err := grid.Make().Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(0)
	if _, err := Run(sys, Options{
		Base:   transient.Options{TStop: grid.TStop, Trace: trace.New(rec, 0)},
		Scheme: SchemeBackward,
	}); err != nil {
		t.Fatal(err)
	}
	spans := map[int32]int{}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindWorker {
			spans[ev.Stage]++
		}
	}
	accepts := 0
	for _, ev := range rec.Events() {
		if ev.Kind != trace.KindAccept || spans[ev.Stage] < Width {
			continue
		}
		accepts++
		if !(ev.Norm > 0 && ev.Norm <= 1) {
			t.Errorf("stage %d accepted t=%g with norm %g", ev.Stage, ev.T, ev.Norm)
		}
	}
	if accepts == 0 {
		t.Fatal("no pipelined stage accepted a point")
	}
}
