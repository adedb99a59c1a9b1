package wavepipe

// Public-API robustness test: a run with faults injected through the
// package's test seam (TranOptions.inject) must surface the typed error
// taxonomy and the recovery log through the facade.

import (
	"context"
	"errors"
	"math"
	"testing"

	"wavepipe/internal/faults"
)

func faultTestSystem(t *testing.T) *System {
	t.Helper()
	c := NewCircuit("rc")
	in := c.Node("in")
	out := c.Node("out")
	AddVSource(c, "V1", in, Ground, Pulse{V1: 0, V2: 1, Rise: 1e-12, Width: 1})
	AddResistor(c, "R1", in, out, 1e3)
	AddCapacitor(c, "C1", out, Ground, 1e-7)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// A faulted run through the facade must recover via the ladder, log the
// events, and still produce the right waveform.
func TestFacadeFaultInjectionAndRecovery(t *testing.T) {
	in := faults.NewInjector(faults.Rule{
		Class: faults.NoConvergence, After: 1e-16, Count: 7, SpareFrom: 1, // spare from the damping rung up
	})
	res, err := RunTransientCtx(context.Background(), faultTestSystem(t), TranOptions{TStop: 1e-3, inject: in})
	if err != nil {
		t.Fatalf("faulted run did not recover: %v", err)
	}
	if in.Fired() == 0 {
		t.Fatal("fault rule never fired")
	}
	if res.Stats.Recoveries == 0 || res.Recovery.Len() == 0 {
		t.Fatalf("no recovery recorded: stats=%+v events=%+v", res.Stats, res.Recovery.Events())
	}
	got, err := res.W.At("out", 3e-4)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 - math.Exp(-3e-4/1e-4); math.Abs(got-want) > 0.02 {
		t.Fatalf("out(3e-4) = %g, want %g", got, want)
	}
}

// An unrecoverable run must surface the taxonomy through the facade's
// re-exported sentinels and return the partial result.
func TestFacadeTypedFailure(t *testing.T) {
	in := faults.NewInjector(faults.Rule{
		Class: faults.NoConvergence, After: 1e-16, Count: 1_000_000,
	})
	res, err := RunTransientCtx(context.Background(), faultTestSystem(t), TranOptions{TStop: 1e-3, inject: in})
	if err == nil {
		t.Fatal("run succeeded with every solve defeated")
	}
	if !errors.Is(err, ErrStepTooSmall) || !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrStepTooSmall wrapping ErrNoConvergence", err)
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a SimError", err)
	}
	if res == nil || res.W == nil || res.W.Len() == 0 {
		t.Fatal("partial result missing")
	}
}
