package transient

import (
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/device"
	"wavepipe/internal/integrate"
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
	opts := Options{TStop: tstop}.WithDefaults()
	ps := NewPointSolver(sys, opts.Method, opts.Newton, opts.Gmin)
	ps.Attach(&opts, 0)
	s := NewStepper(sys, ps, &opts, "transient")
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for !s.Done() {
		if err := s.Step(ps.SolveAt); err != nil {
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
