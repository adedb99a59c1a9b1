package wavepipe

import (
	"math"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/device"
	"wavepipe/internal/integrate"
	"wavepipe/internal/newton"
	"wavepipe/internal/transient"
	"wavepipe/internal/waveform"
)

func rcSystem(t *testing.T) *circuit.System {
	t.Helper()
	ckt := circuit.New("rc")
	in := ckt.Node("in")
	out := ckt.Node("out")
	ckt.Add(device.NewVSource("V1", in, circuit.Ground, device.Pulse{
		V1: 0, V2: 1, Rise: 1e-12, Width: 1,
	}))
	ckt.Add(device.NewResistor("R1", in, out, 1e3))
	ckt.Add(device.NewCapacitor("C1", out, circuit.Ground, 1e-6))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func rectifierSystem(t *testing.T) *circuit.System {
	t.Helper()
	ckt := circuit.New("rect")
	in := ckt.Node("in")
	out := ckt.Node("out")
	ckt.Add(device.NewVSource("V1", in, circuit.Ground, device.Sin{Amplitude: 5, Freq: 1e3}))
	ckt.Add(device.NewDiode("D1", in, out, device.DefaultDiodeModel(), 1))
	ckt.Add(device.NewResistor("RL", out, circuit.Ground, 10e3))
	ckt.Add(device.NewCapacitor("CL", out, circuit.Ground, 4.7e-7))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// The paper's central claim: WavePipe does not jeopardize accuracy. Every
// scheme's waveform must track the serial reference within tolerance-scale
// deviation on both a linear and a nonlinear circuit.
func TestAccuracyMatchesSerialAllSchemes(t *testing.T) {
	cases := []struct {
		name  string
		mk    func(*testing.T) *circuit.System
		tstop float64
		limit float64 // relative to signal range
	}{
		{"rc", rcSystem, 5e-3, 0.01},
		{"rectifier", rectifierSystem, 3e-3, 0.02},
	}
	for _, tc := range cases {
		ref, err := transient.Run(tc.mk(t), transient.Options{TStop: tc.tstop})
		if err != nil {
			t.Fatalf("%s serial: %v", tc.name, err)
		}
		for _, scheme := range []Scheme{SchemeBackward, SchemeForward} {
			res, err := Run(tc.mk(t), Options{
				Base:   transient.Options{TStop: tc.tstop},
				Scheme: scheme,
			})
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, scheme, err)
			}
			dev, err := waveform.Compare(res.W, ref.W, "out")
			if err != nil {
				t.Fatal(err)
			}
			if dev.RelMax() > tc.limit {
				t.Errorf("%s %v: relative deviation %.4f exceeds %.4f (max %g over range %g)",
					tc.name, scheme, dev.RelMax(), tc.limit, dev.Max, dev.Range)
			}
		}
	}
}

// sineRCSystem is an LTE-limited workload: the continuously curving drive
// keeps truncation error (not HMax or the growth cap) as the binding step
// constraint — the regime where backward pipelining pays off.
func sineRCSystem(t *testing.T) *circuit.System {
	t.Helper()
	ckt := circuit.New("sinerc")
	in := ckt.Node("in")
	out := ckt.Node("out")
	ckt.Add(device.NewVSource("V1", in, circuit.Ground, device.Sin{Amplitude: 1, Freq: 1e3}))
	ckt.Add(device.NewResistor("R1", in, out, 1e3))
	ckt.Add(device.NewCapacitor("C1", out, circuit.Ground, 1e-7))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// Backward pipelining must advance with larger steps than serial on an
// LTE-limited workload: the number of *stages* (sequential solve rounds on
// the critical path) must be meaningfully lower than the serial point
// count over the same window. This is the paper's headline mechanism.
func TestBackwardPipeliningTakesLargerSteps(t *testing.T) {
	tstop := 5e-3
	ref, err := transient.Run(sineRCSystem(t), transient.Options{TStop: tstop})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sineRCSystem(t), Options{
		Base:   transient.Options{TStop: tstop},
		Scheme: SchemeBackward,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("backward stages %d, serial stages %d, ratio %.3f",
		res.Stats.Stages, ref.Stats.Stages, float64(res.Stats.Stages)/float64(ref.Stats.Stages))
	if float64(res.Stats.Stages) > 0.85*float64(ref.Stats.Stages) {
		t.Fatalf("backward pipelining stages (%d) not below 85%% of serial (%d)",
			res.Stats.Stages, ref.Stats.Stages)
	}
	// Equivalently: the average time advanced per critical-path solve must
	// beat serial's average step.
	avgAdvance := tstop / float64(res.Stats.Stages)
	serialAvg := tstop / float64(ref.Stats.Stages)
	if avgAdvance <= serialAvg {
		t.Fatalf("advance per stage %g not above serial %g", avgAdvance, serialAvg)
	}
}

// Forward pipelining's speculative warm start must save corrective Newton
// iterations: the phase-B solves should converge in fewer iterations than a
// cold solve would.
func TestForwardPipeliningAcceptsSpeculativePoints(t *testing.T) {
	res, err := Run(rectifierSystem(t), Options{
		Base:   transient.Options{TStop: 2e-3},
		Scheme: SchemeForward,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Points < 20 {
		t.Fatalf("too few points: %d", res.Stats.Points)
	}
	// Most speculative points must survive; massive discarding would mean
	// the prediction is useless.
	if res.Stats.Discarded > res.Stats.Points/2 {
		t.Fatalf("too many discarded speculative points: %d of %d",
			res.Stats.Discarded, res.Stats.Points)
	}
}

// A scheme is its stage, and every stage is two solvers: the width is fixed,
// not an option.
func TestEverySchemeRunsTwoSolvers(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBackward, SchemeForward} {
		res, err := Run(rcSystem(t), Options{
			Base:   transient.Options{TStop: 2e-3},
			Scheme: scheme,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Points < 10 {
			t.Fatalf("%v: too few points: %d", scheme, res.Stats.Points)
		}
		if res.Stats.PipelineWorkers != 2 {
			t.Fatalf("%v ran %d solvers, want 2", scheme, res.Stats.PipelineWorkers)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	if SchemeSerial.String() != "serial" || SchemeBackward.String() != "backward" ||
		SchemeForward.String() != "forward" || Scheme(9).String() != "unknown" || Scheme(-1).String() != "unknown" {
		t.Fatal("scheme names")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(rcSystem(t), Options{}); err == nil {
		t.Fatal("TStop=0 must fail")
	}
	if _, err := Run(rcSystem(t), Options{
		Base:   transient.Options{TStop: 1e-3, MaxPoints: 2},
		Scheme: SchemeBackward,
	}); err == nil {
		t.Fatal("MaxPoints must abort")
	}
	for _, s := range []Scheme{SchemeSerial, Scheme(9)} {
		if _, err := Run(rcSystem(t), Options{Base: transient.Options{TStop: 1e-3}, Scheme: s}); err == nil {
			t.Fatalf("scheme %v must be refused", s)
		}
	}
}

// Waveform monotonicity property: accepted points must always be published
// in strictly ascending time order across all schemes (the coordinator's
// ordering contract).
func TestTimeAxisStrictlyAscending(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBackward, SchemeForward} {
		res, err := Run(rectifierSystem(t), Options{
			Base:   transient.Options{TStop: 2e-3},
			Scheme: scheme,
		})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for i := 1; i < len(res.W.Times); i++ {
			if res.W.Times[i] <= res.W.Times[i-1] {
				t.Fatalf("%v: time axis not ascending at %d: %g after %g",
					scheme, i, res.W.Times[i], res.W.Times[i-1])
			}
		}
	}
}

// The pipelined engines must respect waveform breakpoints exactly, like the
// serial engine.
func TestBreakpointHandling(t *testing.T) {
	ckt := circuit.New("bp")
	in := ckt.Node("in")
	out := ckt.Node("out")
	ckt.Add(device.NewVSource("V1", in, circuit.Ground, device.Pulse{
		V1: 0, V2: 1, Delay: 1e-3, Rise: 1e-5, Width: 1e-3, Fall: 1e-5,
	}))
	ckt.Add(device.NewResistor("R1", in, out, 1e3))
	ckt.Add(device.NewCapacitor("C1", out, circuit.Ground, 1e-7))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{SchemeBackward, SchemeForward} {
		res, err := Run(sys, Options{Base: transient.Options{TStop: 4e-3}, Scheme: scheme})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for _, want := range []float64{1e-3, 1e-3 + 1e-5} {
			found := false
			for _, tv := range res.W.Times {
				if math.Abs(tv-want) < 1e-12 {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%v: breakpoint %g not hit", scheme, want)
			}
		}
	}
}

func TestGear2DefaultMethod(t *testing.T) {
	res, err := Run(rcSystem(t), Options{
		Base:   transient.Options{TStop: 1e-3, Method: integrate.Gear2},
		Scheme: SchemeBackward,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalX == nil || len(res.FinalX) == 0 {
		t.Fatal("missing final solution")
	}
}

// ResumeAt must fall back to a full solve when the speculative assembly's
// discretization does not match the true history (e.g. the backward point
// under the main step failed, changing the trailing spacing).
func TestResumeAtFallback(t *testing.T) {
	sys := rcSystem(t)
	ps := transient.NewPointSolver(sys, integrate.Gear2, newtonDefaults())
	hist := &integrate.History{}
	p0, err := transient.InitialPoint(sys, ps, transient.Options{TStop: 1e-3}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	hist.Add(p0)
	pt1, _, err := ps.SolveAt(hist, 1e-7, nil)
	if err != nil {
		t.Fatal(err)
	}
	hist.Add(pt1)
	// Warm start for t=3e-7 against this history...
	warm := ps.WarmStart(hist, 3e-7, 2)
	// ...then resume against a *different* history (extra point changes
	// Alpha0): must still produce a correct point via the fallback.
	pt2, _, err := ps.SolveAt(hist, 2e-7, nil)
	if err != nil {
		t.Fatal(err)
	}
	hist.Add(pt2)
	pt3, co, err := ps.ResumeAt(hist, 3e-7, warm)
	if err != nil {
		t.Fatal(err)
	}
	if pt3.T != 3e-7 || co.H0 <= 0 {
		t.Fatalf("resume fallback point: %+v", pt3)
	}
	// And a matching resume (same history shape) also works.
	warm2 := ps.WarmStart(hist, 4e-7, 2)
	pt4, _, err := ps.ResumeAt(hist, 4e-7, warm2)
	if err != nil {
		t.Fatal(err)
	}
	if pt4.T != 4e-7 {
		t.Fatalf("resume point: %+v", pt4)
	}
}

func newtonDefaults() newton.Options { return newton.DefaultOptions() }

func TestWarmDepthAdaptivity(t *testing.T) {
	e := &engine{opts: Options{}}
	if e.warmDepth() != 1 {
		t.Fatalf("cold depth = %d, want 1", e.warmDepth())
	}
	e.noteMainIters(4)
	if e.emaIters != 4 {
		t.Fatalf("first sample sets the average: %g", e.emaIters)
	}
	for i := 0; i < 30; i++ {
		e.noteMainIters(6)
	}
	if d := e.warmDepth(); d != 6 {
		t.Fatalf("converged depth = %d, want 6", d)
	}
	for i := 0; i < 100; i++ {
		e.noteMainIters(50)
	}
	if d := e.warmDepth(); d != 10 {
		t.Fatalf("depth cap = %d, want 10", d)
	}
}

// The pipelined schemes must also hold accuracy under the trapezoidal rule
// (the paper's analysis covers both second-order methods).
func TestTrapezoidalSchemes(t *testing.T) {
	ref, err := transient.Run(rectifierSystem(t), transient.Options{
		TStop: 2e-3, Method: integrate.Trapezoidal,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{SchemeBackward, SchemeForward} {
		res, err := Run(rectifierSystem(t), Options{
			Base:   transient.Options{TStop: 2e-3, Method: integrate.Trapezoidal},
			Scheme: scheme,
		})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		dev, err := waveform.Compare(res.W, ref.W, "out")
		if err != nil {
			t.Fatal(err)
		}
		if dev.RelMax() > 0.02 {
			t.Fatalf("%v trap deviation %.4f", scheme, dev.RelMax())
		}
	}
}

// Determinism: identical options must produce bit-identical waveforms (no
// map-iteration or scheduling nondeterminism leaks into results).
func TestRunIsDeterministic(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBackward, SchemeForward} {
		opts := Options{
			Base:   transient.Options{TStop: 1e-3},
			Scheme: scheme,
		}
		a, err := Run(rectifierSystem(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(rectifierSystem(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.W.Times) != len(b.W.Times) {
			t.Fatalf("%v: point counts differ: %d vs %d", scheme, len(a.W.Times), len(b.W.Times))
		}
		for i := range a.W.Times {
			if a.W.Times[i] != b.W.Times[i] || a.W.Data[i][1] != b.W.Data[i][1] {
				t.Fatalf("%v: runs diverge at %d", scheme, i)
			}
		}
	}
}
