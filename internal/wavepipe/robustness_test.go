package wavepipe

import (
	"slices"
	"sort"
	"testing"

	"wavepipe/internal/faults"
	"wavepipe/internal/transient"
	"wavepipe/internal/waveform"
)

// runRectifier executes a combined-scheme run (four points a stage) of the
// rectifier with real concurrent workers and the given fault harness.
func runRectifier(t *testing.T, in *faults.Injector) *transient.Result {
	t.Helper()
	forceGang(t)
	res, err := Run(rectifierSystem(t), Options{
		Base:   transient.Options{TStop: 3e-3, Faults: in},
		Scheme: SchemeCombined,
	})
	if err != nil {
		t.Fatalf("faulted run did not recover: %v", err)
	}
	return res
}

// checkEnvelope asserts the faulted run's waveform still tracks the clean
// serial reference within the repository's standard accuracy envelope —
// recovery and degradation must not bend the answer.
func checkEnvelope(t *testing.T, res *transient.Result) {
	t.Helper()
	ref, err := transient.Run(rectifierSystem(t), transient.Options{TStop: 3e-3})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := waveform.Compare(res.W, ref.W, "out")
	if err != nil {
		t.Fatal(err)
	}
	if dev.RelMax() > 0.02 {
		t.Fatalf("deviation %.4f exceeds envelope 0.02", dev.RelMax())
	}
}

// Each injectable fault class, thrown at a pipelined run mid-waveform, must
// be absorbed: the run completes and stays inside the accuracy envelope.
func TestPipelineSurvivesNoConvergenceBurst(t *testing.T) {
	in := faults.NewInjector(faults.Rule{
		Class: faults.NoConvergence, After: 0.2e-3, Count: 5,
		SpareFrom: faults.StageDamping,
	})
	res := checkFaulted(t, in)
	if res.Stats.NRFailures == 0 {
		t.Fatal("injected failures left no trace in stats")
	}
}

func TestPipelineSurvivesSingularBurst(t *testing.T) {
	in := faults.NewInjector(faults.Rule{
		Class: faults.Singular, After: 0.2e-3, Count: 5,
		SpareFrom: faults.StageDamping,
	})
	checkFaulted(t, in)
}

func TestPipelineSurvivesNonFiniteStamps(t *testing.T) {
	in := faults.NewInjector(faults.Rule{
		Class: faults.NonFinite, After: 0.2e-3, Count: 5,
		SpareFrom: faults.StageDamping,
	})
	checkFaulted(t, in)
}

// checkFaulted runs the standard faulted scenario and its shared assertions.
func checkFaulted(t *testing.T, in *faults.Injector) *transient.Result {
	t.Helper()
	res := runRectifier(t, in)
	if in.Fired() == 0 {
		t.Fatal("fault rule never fired")
	}
	checkEnvelope(t, res)
	return res
}

// Worker panics must be contained by the stage guards, counted, and answered
// with a serial-fallback window — never a crashed process or a failed run.
func TestPipelineSurvivesWorkerPanics(t *testing.T) {
	in := faults.NewInjector(faults.Rule{
		Class: faults.WorkerPanic, After: 0.2e-3, Count: 3,
	})
	res := checkFaulted(t, in)
	if res.Stats.WorkerPanics == 0 {
		t.Fatal("panics were not counted")
	}
	if res.Recovery.Count(transient.RecoverySerialFallback) == 0 {
		t.Fatalf("no serial-fallback event logged: %+v", res.Recovery.Events())
	}
	if res.Stats.DegradedStages == 0 {
		t.Fatal("degradation window never ran serial stages")
	}
}

// The fence is per task, not per goroutine: when every task of a four-wide
// round panics at once, three of them do so on gang members other than the
// caller, and each is caught on its own slot. The firing log proves they
// shared a round: its four times are exactly the four targets of the first
// stage's plan (a panic in a later flush stage would repeat the main time).
func TestPipelineSurvivesPanicsOnEveryGangMember(t *testing.T) {
	in := faults.NewInjector(faults.Rule{Class: faults.WorkerPanic, Count: maxWidth})
	res := checkFaulted(t, in)
	if res.Stats.WorkerPanics != maxWidth {
		t.Fatalf("%d panics counted, want %d", res.Stats.WorkerPanics, maxWidth)
	}
	var fired []float64
	for _, f := range in.Firings() {
		fired = append(fired, f.T)
	}
	sort.Float64s(fired)
	p := planStage(SchemeCombined, false, 0, fired[1], false, 3e-3)
	want := []float64{p.back.t, p.main.t, p.fwdBack.t, p.fwd.t}
	if !slices.Equal(fired, want) {
		t.Fatalf("panics fired at %v, first stage's targets are %v", fired, want)
	}
}

// A panic in the flush stage itself — the fifth firing, after a whole round
// went down — is fenced like any other and costs a step shrink, not the run.
func TestFlushStagePanicIsContained(t *testing.T) {
	in := faults.NewInjector(faults.Rule{Class: faults.WorkerPanic, Count: maxWidth + 1})
	res := checkFaulted(t, in)
	if res.Stats.WorkerPanics != maxWidth+1 {
		t.Fatalf("%d panics counted, want %d", res.Stats.WorkerPanics, maxWidth+1)
	}
	fired := in.Firings()
	last := fired[maxWidth]
	if !slices.ContainsFunc(fired[:maxWidth], func(f faults.Firing) bool { return f.T == last.T }) {
		t.Fatalf("fifth panic at t=%g is not the flush stage redoing the main point: %+v", last.T, fired)
	}
}

// A clean pipelined run must show zero robustness activity: no recovery
// events, no recoveries, no panics, no degraded stages.
func TestZeroFaultPipelineHasNoRecoveryActivity(t *testing.T) {
	res := runRectifier(t, nil)
	if res.Recovery == nil || res.Recovery.Len() != 0 {
		t.Fatalf("clean run logged recovery events: %+v", res.Recovery.Events())
	}
	s := res.Stats
	if s.Recoveries != 0 || s.WorkerPanics != 0 || s.DegradedStages != 0 {
		t.Fatalf("clean run shows robustness activity: %+v", s)
	}
}
