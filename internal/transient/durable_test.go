package transient

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wavepipe/internal/checkpoint"
	"wavepipe/internal/faults"
)

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

// interruptedRun runs the RC circuit uninterrupted for reference, then again
// with a guard and half the point budget, and returns the reference and the
// path of the checkpoint the interrupted run left.
func interruptedRun(t *testing.T) (ref *Result, path string) {
	t.Helper()
	sysRef, _ := rcCircuit(1e3, 1e-7)
	ref, err := Run(sysRef, Options{TStop: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Points < 40 {
		t.Fatalf("reference run too short for a meaningful interrupt (%d points)", ref.Stats.Points)
	}
	path = filepath.Join(t.TempDir(), "run.wpcp")
	sys, _ := rcCircuit(1e3, 1e-7)
	guard := checkpoint.NewController(checkpoint.Config{Path: path})
	guard.Start()
	defer guard.Stop()
	if _, err := Run(sys, Options{TStop: 1e-3, MaxPoints: ref.Stats.Points / 2, Guard: guard}); err == nil {
		t.Fatal("interrupted run reported success")
	}
	return ref, path
}

// resumeMatches resumes the RC run from st and requires the complete waveform
// to equal the uninterrupted run's bit for bit, cumulative stats included.
func resumeMatches(t *testing.T, st *checkpoint.State, ref *Result) {
	t.Helper()
	sys, _ := rcCircuit(1e3, 1e-7)
	res, err := Run(sys, Options{TStop: 1e-3, Resume: st})
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

// Serial kill-and-resume bit-identity at the unit level: interrupt a run
// mid-flight (MaxPoints), resume from the final checkpoint, and require the
// complete waveform to equal the uninterrupted run's bit for bit.
func TestSerialResumeBitIdentical(t *testing.T) {
	ref, path := interruptedRun(t)
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("loading final checkpoint: %v", err)
	}
	resumeMatches(t, st, ref)
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
	if pts := statsFrom(st.Stats).Points; pts != 20 {
		t.Fatalf("checkpoint holds %d points, want the 20 of the budget", pts)
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
	if got := statsFrom(st.Stats); got != res.Stats {
		t.Fatalf("checkpoint stats %+v, run stats %+v", got, res.Stats)
	}
}

// TestCheckpointCarriesEveryCounter: Stats.counters is the one list of what a
// checkpoint carries, so every field of Stats must be on it, once — all but
// BypassedFactorizations, which is retired (always 0). A Stats with a distinct
// value in every field survives the trip through the counter vector.
func TestCheckpointCarriesEveryCounter(t *testing.T) {
	var s Stats
	listed := map[any]bool{}
	for _, f := range s.counters() {
		if listed[f] {
			t.Fatalf("field %T listed twice", f)
		}
		listed[f] = true
	}
	rv := reflect.ValueOf(&s).Elem()
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		retired := name == "BypassedFactorizations"
		if got := listed[rv.Field(i).Addr().Interface()]; got == retired {
			t.Fatalf("Stats.%s on the checkpoint's counter list: %v, want %v", name, got, !retired)
		}
		switch f := rv.Field(i); {
		case retired:
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		default:
			f.SetInt(int64(100 + i))
		}
	}
	if got := statsFrom(s.counterVector()); got != s {
		t.Fatalf("counter vector round trip: got %+v, want %+v", got, s)
	}
}
