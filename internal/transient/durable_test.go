package transient

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"wavepipe/internal/checkpoint"
	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
)

// Regression for the recovery-ladder × device-bypass interaction: every
// ladder escalation solves a different system (tighter damping, a new gmin
// rung, the final clean system), so each one must bump the incremental-
// assembly generation — a stamp journaled under one rung's regime replayed
// under the next would assemble the wrong matrix. Before the fix the ladder
// bumped only once at entry.
func TestRecoveryLadderBumpsBypassGeneration(t *testing.T) {
	sys, _ := rcCircuit(1e3, 1e-7)
	opts := Options{TStop: 1e-3}
	opts = opts.WithDefaults()
	ps := NewPointSolver(sys, opts.Method, opts.Newton, opts.Gmin)
	ps.WS.SetDeviceBypass(DefaultDeviceBypassTol, 0)
	// Defeat both damping rungs (sparing the t=0 operating point); the gmin
	// ramp is spared and succeeds.
	in := faults.NewInjector(faults.Rule{
		Class:     faults.NoConvergence,
		After:     1e-16,
		Count:     2,
		SpareFrom: faults.StageGmin,
	})
	ps.WS.Faults = in

	p0, err := InitialPoint(sys, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	hist := &integrate.History{}
	hist.Add(p0)

	gen0 := ps.WS.BypassGeneration()
	rl := &RecoveryLog{}
	if _, _, err := ps.RecoverAt(hist, 1e-6, rl); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if rl.Count(RecoveryGminRamp) != 1 {
		t.Fatalf("expected a gmin-ramp rescue, got %+v", rl.Events())
	}
	// Ladder entry (1) + two damping rungs (2) + eight gmin rungs (8) + the
	// final clean solve (1): at least 12 distinct assembly regimes.
	if delta := ps.WS.BypassGeneration() - gen0; delta < 12 {
		t.Fatalf("generation advanced by %d, want >= 12 (one per escalation)", delta)
	}
}

// The ladder must rescue a device-bypass run without bending the answer:
// same closed-form check the plain-path recovery tests use, with journals
// live across the forced rungs.
func TestRecoveryWithDeviceBypassKeepsAnswer(t *testing.T) {
	sys, _ := rcCircuit(1e3, 1e-7) // tau = 1e-4
	in := faults.NewInjector(faults.Rule{
		Class:     faults.NoConvergence,
		After:     1e-16,
		Count:     9, // shrink attempts + both damping rungs
		SpareFrom: faults.StageGmin,
	})
	res, err := Run(sys, Options{TStop: 1e-3, Faults: in, DeviceBypassTol: DefaultDeviceBypassTol})
	if err != nil {
		t.Fatalf("run failed despite gmin ramp: %v", err)
	}
	if res.Recovery.Count(RecoveryGminRamp) != 1 {
		t.Fatalf("gmin recoveries: %+v", res.Recovery.Events())
	}
	checkRC(t, res)
}

// sameWaveform asserts bitwise equality of two waveform sets.
func sameWaveform(t *testing.T, got, want *Result, ctxt string) {
	t.Helper()
	if got.W.Len() != want.W.Len() {
		t.Fatalf("%s: %d points, want %d", ctxt, got.W.Len(), want.W.Len())
	}
	for k := range want.W.Times {
		if got.W.Times[k] != want.W.Times[k] {
			t.Fatalf("%s: time[%d] = %g, want %g", ctxt, k, got.W.Times[k], want.W.Times[k])
		}
		for j := range want.W.Data[k] {
			if got.W.Data[k][j] != want.W.Data[k][j] {
				t.Fatalf("%s: data[%d][%d] = %g, want %g",
					ctxt, k, j, got.W.Data[k][j], want.W.Data[k][j])
			}
		}
	}
	for i := range want.FinalX {
		if got.FinalX[i] != want.FinalX[i] {
			t.Fatalf("%s: FinalX[%d] = %g, want %g", ctxt, i, got.FinalX[i], want.FinalX[i])
		}
	}
}

// Serial kill-and-resume bit-identity at the unit level: interrupt a run
// mid-flight (MaxPoints), resume from the final checkpoint, and require the
// complete waveform to equal the uninterrupted run's bit for bit.
func TestSerialResumeBitIdentical(t *testing.T) {
	build := func() Options { return Options{TStop: 1e-3} }
	sysRef, _ := rcCircuit(1e3, 1e-7)
	ref, err := Run(sysRef, build())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Points < 40 {
		t.Fatalf("reference run too short for a meaningful interrupt (%d points)", ref.Stats.Points)
	}

	path := filepath.Join(t.TempDir(), "run.wpcp")
	sysA, _ := rcCircuit(1e3, 1e-7)
	optsA := build()
	optsA.MaxPoints = ref.Stats.Points / 2
	guardA := checkpoint.NewController(checkpoint.Config{Path: path})
	guardA.Start()
	optsA.Guard = guardA
	if _, err := Run(sysA, optsA); err == nil {
		t.Fatal("interrupted run reported success")
	}
	guardA.Stop()

	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("loading final checkpoint: %v", err)
	}
	sysB, _ := rcCircuit(1e3, 1e-7)
	optsB := build()
	optsB.Resume = st
	res, err := Run(sysB, optsB)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	sameWaveform(t, res, ref, "resumed")
	// Cumulative stats span both segments.
	if res.Stats.Points != ref.Stats.Points {
		t.Fatalf("cumulative points %d, want %d", res.Stats.Points, ref.Stats.Points)
	}
	if res.Stats.Solves != ref.Stats.Solves {
		t.Fatalf("cumulative solves %d, want %d", res.Stats.Solves, ref.Stats.Solves)
	}
}

// Resuming against the wrong circuit or options must fail with the typed
// checkpoint error before any solving happens.
func TestResumeValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wpcp")
	sys, _ := rcCircuit(1e3, 1e-7)
	opts := Options{TStop: 1e-3, MaxPoints: 20}
	guard := checkpoint.NewController(checkpoint.Config{Path: path})
	guard.Start()
	opts.Guard = guard
	if _, err := Run(sys, opts); err == nil {
		t.Fatal("interrupted run reported success")
	}
	guard.Stop()
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	// Different circuit: an RC ladder with more unknowns.
	other, _ := rcCircuit(2e3, 1e-7)
	otherOpts := Options{TStop: 1e-3, Resume: st}
	if sysN := other.N; sysN == sys.N {
		// rcCircuit always has the same topology; perturb TStop instead.
		otherOpts.TStop = 2e-3
	}
	if _, err := Run(other, otherOpts); !errors.Is(err, faults.ErrBadCheckpoint) {
		t.Fatalf("mismatched resume: %v, want ErrBadCheckpoint", err)
	}
}

// MaxPoints bounds the run, not the segment: a resume restarts the solver's
// counter at zero with the earlier segments in Stepper.Base, and the budget
// used to be compared with the counter alone — every preempted job, every
// wavesim -resume, got a fresh one. Resumed one point short of the budget, a
// run accepts exactly one more point and stops with the budget error.
func TestPointBudgetSurvivesResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wpcp")
	sys, _ := rcCircuit(1e3, 1e-7)
	guard := checkpoint.NewController(checkpoint.Config{Path: path})
	guard.Start()
	_, err := Run(sys, Options{TStop: 1e-3, MaxPoints: 20, Guard: guard})
	guard.Stop()
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats.Points != 20 {
		t.Fatalf("checkpoint holds %d points, want the 20 of the budget", st.Stats.Points)
	}

	sys, _ = rcCircuit(1e3, 1e-7)
	res, err := Run(sys, Options{TStop: 1e-3, MaxPoints: 21, Resume: st})
	if err == nil || !strings.Contains(err.Error(), "exceeded 21 points") {
		t.Fatalf("resumed one point short of the budget: err = %v, want the budget error", err)
	}
	if res.Stats.Points != 21 || res.W.Len() != len(st.WaveTimes)+1 {
		t.Fatalf("resumed run stopped at %d points, %d rows; want 21 points, %d rows",
			res.Stats.Points, res.W.Len(), len(st.WaveTimes)+1)
	}
}

// A guarded run that never accepts a point (immediate failure) must not
// write a checkpoint, and a clean guarded run must write a final one.
func TestFinalCheckpointWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "final.wpcp")
	sys, _ := rcCircuit(1e3, 1e-7)
	guard := checkpoint.NewController(checkpoint.Config{Path: path})
	guard.Start()
	res, err := Run(sys, Options{TStop: 1e-3, Guard: guard})
	guard.Stop()
	if err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if st.T != res.W.Times[res.W.Len()-1] {
		t.Fatalf("final checkpoint at t=%g, run ended at t=%g", st.T, res.W.Times[res.W.Len()-1])
	}
	if int(st.Stats.Points) != res.Stats.Points {
		t.Fatalf("checkpoint points %d, run points %d", st.Stats.Points, res.Stats.Points)
	}
}
