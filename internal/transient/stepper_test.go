package transient

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/device"
	"wavepipe/internal/integrate"
	"wavepipe/internal/trace"
)

// runStepper drives an RC low-pass to tstop through a bare Stepper, the way
// every engine does; the source's rising edge starts at delay.
func runStepper(t *testing.T, delay, tstop float64) *Stepper {
	t.Helper()
	ckt := circuit.New("rc")
	in, out := ckt.Node("in"), ckt.Node("out")
	ckt.Add(device.NewVSource("V1", in, circuit.Ground, device.Pulse{V2: 1, Delay: delay, Rise: 1e-6, Width: 1}))
	ckt.Add(device.NewResistor("R1", in, out, 1e3))
	ckt.Add(device.NewCapacitor("C1", out, circuit.Ground, 1e-6))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newStepper(t, sys, tstop)
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if err := s.Step(s.ps.SolveAt); err != nil {
			t.Fatal(err)
		}
	}
	if s.T != tstop {
		t.Fatalf("run ended at %g, not on the horizon %g", s.T, tstop)
	}
	return s
}

// The final landing follows one rule for every engine that steps through a
// Stepper: on a plain horizon the history stays at full order (a resumed
// continuation picks up without a restart transient); on a horizon that
// coincides with a waveform edge it is truncated and integration restarts.
// Ensemble lanes used to restart on both.
func TestStepperFinalLanding(t *testing.T) {
	plain := runStepper(t, 0, 5e-3)
	if plain.AfterBreak {
		t.Error("plain-horizon landing restarted integration")
	}
	if n, want := plain.Hist.Len(), integrate.Gear2.Order()+2; n < want {
		t.Errorf("plain-horizon landing kept %d history points, want the full LTE stencil (>= %d)", n, want)
	}

	edge := runStepper(t, 5e-3, 5e-3)
	if !edge.AfterBreak {
		t.Error("landing on a waveform edge at the horizon did not restart integration")
	}
	if n := edge.Hist.Len(); n != 1 {
		t.Errorf("landing on a waveform edge at the horizon kept %d history points, want 1", n)
	}
}

// newStepper returns a controller on sys, not started.
func newStepper(t *testing.T, sys *circuit.System, tstop float64) *Stepper {
	t.Helper()
	opts := Options{TStop: tstop}.WithDefaults()
	ps := NewPointSolver(sys, opts.Method, opts.Newton, opts.Gmin)
	ps.Attach(&opts, 0)
	return NewStepper(sys, ps, &opts, "transient")
}

// significantBits is the width of h's mantissa from its leading one to its
// last set bit.
func significantBits(h float64) int {
	m := math.Float64bits(h)&(1<<52-1) | 1<<52
	return 53 - bits.TrailingZeros64(m)
}

// TestSetStepKeepsAShortMantissaOnLinearSystems: on a linear system SetStep
// rounds down to stepMantissaBits significant bits — by less than 2⁻¹¹ of the
// step, idempotently — and with such a step the sum T+h is exact whatever the
// bits of T, for h/T down to 2⁻⁴⁰, as long as it stays in T's binade (T and
// h are then both whole multiples of the sum's ulp), so the spacing
// integrate.Compute reads back from the history is the step that was set. On
// a nonlinear system the step is stored as given.
func TestSetStepKeepsAShortMantissaOnLinearSystems(t *testing.T) {
	lin, _ := rcCircuit(1e3, 1e-6)
	if !lin.Linear() {
		t.Fatal("the RC low-pass is not linear")
	}
	s := newStepper(t, lin, 1)
	rng := rand.New(rand.NewSource(19))
	summed := 0
	for trial := 0; trial < 2000; trial++ {
		// T anywhere in sixty binades with a full random mantissa.
		T := math.Ldexp(1+rng.Float64(), rng.Intn(60)-50)
		for k := 0; k <= 40; k++ {
			h := math.Ldexp(T*(1+rng.Float64()), -k-1) // T·2⁻ᵏ·[½, 1)
			if h < math.Ldexp(T, -40) {
				h = math.Ldexp(T, -40)
			}
			s.SetStep(h)
			H := s.H
			if H > h || H < h*(1-0x1p-11) {
				t.Fatalf("SetStep(%x) = %x: not a round-down by under 2⁻¹¹", math.Float64bits(h), math.Float64bits(H))
			}
			if n := significantBits(H); n > stepMantissaBits {
				t.Fatalf("SetStep(%g) kept %d significant bits", h, n)
			}
			if s.SetStep(H); s.H != H {
				t.Fatalf("SetStep is not idempotent: %x → %x", math.Float64bits(H), math.Float64bits(s.H))
			}
			if math.Ilogb(T+H) != math.Ilogb(T) {
				continue // crosses a power of two: TestInexactStepSumIsSelfConsistent
			}
			summed++
			if got := (T + H) - T; got != H {
				t.Fatalf("T = %x, h/T = 2^%.1f: (T+h)−T = %x, h = %x",
					math.Float64bits(T), math.Log2(H/T), math.Float64bits(got), math.Float64bits(H))
			}
		}
	}
	if summed < 70000 {
		t.Fatalf("only %d of 82000 sums stayed inside a binade", summed)
	}

	s = newStepper(t, rectifierCircuit(t), 1)
	h := 1e-3 / 3
	if s.SetStep(h); s.H != h {
		t.Fatalf("nonlinear system: SetStep(%g) stored %g", h, s.H)
	}
}

// TestInexactStepSumIsSelfConsistent: just below h/T = 2⁻⁴⁰ a canonical step
// can be fine enough for T's binade and still too fine for the one T+h lands
// in — the sum crosses a power of two, where the ulp doubles — and the
// candidate time is rounded. Nothing downstream may assume otherwise:
// Compute derives h0, and Alpha0 from it, from the candidate time and the
// history, so the discretization describes the spacing actually taken. To
// the factor store that is just a matrix it has not seen.
func TestInexactStepSumIsSelfConsistent(t *testing.T) {
	lin, _ := rcCircuit(1e3, 1e-6)
	s := newStepper(t, lin, 4)
	// 2⁻⁴¹·(1+2⁻¹¹): twelve significant bits, the last worth 2⁻⁵² — an ulp of
	// anything in [1, 2), half an ulp of anything in [2, 4).
	s.SetStep(math.Ldexp(1+0x1p-11, -41) * (1 + 1e-4))
	H := s.H
	if H != math.Ldexp(1+0x1p-11, -41) {
		t.Fatalf("H = %x", math.Float64bits(H))
	}
	if (1.5+H)-1.5 != H {
		t.Fatal("the step is inexact even inside one binade")
	}
	T := 2 - 0x1p-51 // two ulps below 2: T+H is 2 plus an odd number of half-ulps
	tNew := T + H
	if tNew-T == H {
		t.Fatal("the sum is exact: the test no longer reaches the case it is about")
	}
	n := lin.N
	hist := &integrate.History{}
	hist.Add(&integrate.Point{T: T, X: make([]float64, n), Q: make([]float64, n), Qdot: make([]float64, n)})
	co, err := integrate.Compute(integrate.Gear2, hist, tNew, make([]float64, n))
	if err != nil {
		t.Fatal(err)
	}
	if co.H0 != tNew-T || co.Alpha0 != 1/co.H0 {
		t.Fatalf("H0 = %x, Alpha0 = %x; the spacing taken is %x", math.Float64bits(co.H0), math.Float64bits(co.Alpha0), math.Float64bits(tNew-T))
	}
	if co.H0 == H {
		t.Fatal("H0 equals the step that was set although the sum was rounded")
	}
}

// TestLinearRunStepsAreCanonical: through a whole run on a linear circuit,
// every accepted step that did not land on a breakpoint or the horizon comes
// back from the history with at most stepMantissaBits significant bits — the
// controller, the rejections and the restarts all went through SetStep.
func TestLinearRunStepsAreCanonical(t *testing.T) {
	// An underdamped series RLC rung by a pulse train of awkward timing: the
	// ringing after each edge makes the controller reject.
	ckt := circuit.New("rlc")
	in, mid, out := ckt.Node("in"), ckt.Node("mid"), ckt.Node("out")
	pulse := device.Pulse{V2: 1, Delay: 1e-7 / 3, Rise: 1e-8 / 7, Fall: 1e-8 / 3, Width: 2e-6 / 3, Period: 4e-6 / 3}
	ckt.Add(device.NewVSource("V1", in, circuit.Ground, pulse))
	ckt.Add(device.NewResistor("R1", in, mid, 10))
	ckt.Add(device.NewInductor("L1", mid, out, 1e-6))
	ckt.Add(device.NewCapacitor("C1", out, circuit.Ground, 1e-9))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	tstop := 4e-6
	landing := map[float64]bool{tstop: true}
	for _, bp := range CollectBreakpoints(sys, tstop) {
		landing[bp] = true
	}
	rec := trace.NewRecorder(0)
	res, err := Run(sys, Options{TStop: tstop, Trace: trace.New(rec, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LTERejects == 0 || len(landing) < 4 {
		t.Fatalf("%d LTE rejections, %d landings: the run does not exercise Reject and Restart", res.Stats.LTERejects, len(landing))
	}
	free, canonical, crossed := 0, 0, 0
	prev := 0.0
	for _, ev := range rec.Events() {
		if ev.Kind != trace.KindAccept {
			continue
		}
		switch {
		case landing[ev.T]:
		case prev > 0 && math.Ilogb(ev.T) != math.Ilogb(prev):
			crossed++ // a sum across a power of two may be rounded
		default:
			free++
			if significantBits(ev.H) <= stepMantissaBits {
				canonical++
			}
		}
		prev = ev.T
	}
	if free < 100 || canonical != free || crossed > 30 {
		t.Fatalf("%d of %d free-running accepted steps are canonical (%d more crossed a binade)", canonical, free, crossed)
	}
}

// rectifierCircuit builds the half-wave rectifier of TestDiodeRectifier: the
// nonlinear system the step-grid test needs beside the linear ones.
func rectifierCircuit(t *testing.T) *circuit.System {
	t.Helper()
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
	return sys
}
