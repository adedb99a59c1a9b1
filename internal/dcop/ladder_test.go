package dcop

import (
	"errors"
	"math"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/device"
	"wavepipe/internal/faults"
)

// divider builds the 9 V / 2k / 1k voltage divider (v(mid) = 3) and returns
// a workspace carrying the given fault harness.
func divider(t *testing.T, in *faults.Injector) (*circuit.Workspace, []float64, int) {
	t.Helper()
	c := circuit.New("op")
	cin := c.Node("in")
	mid := c.Node("mid")
	c.Add(device.NewVSource("V1", cin, circuit.Ground, device.DC(9)))
	c.Add(device.NewResistor("R1", cin, mid, 2e3))
	c.Add(device.NewResistor("R2", mid, circuit.Ground, 1e3))
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	ws.Faults = in
	midIdx, _ := c.FindNode("mid")
	return ws, make([]float64, sys.N), midIdx
}

// Defeating direct Newton while sparing the gmin rung must land the ladder
// on gmin stepping — and still produce the exact operating point.
func TestLadderFallsBackToGminStepping(t *testing.T) {
	in := faults.NewInjector(faults.Rule{
		Class: faults.NoConvergence, Count: 5, SpareFrom: faults.StageGmin,
	})
	ws, x, mid := divider(t, in)
	st, err := Solve(ws, x, DefaultOptions())
	if err != nil {
		t.Fatalf("gmin fallback failed: %v", err)
	}
	if st.Strategy != "gmin" {
		t.Fatalf("strategy = %q, want gmin", st.Strategy)
	}
	if st.Continues == 0 {
		t.Fatal("no continuation stages counted")
	}
	if math.Abs(x[mid]-3) > 1e-9 {
		t.Fatalf("v(mid) = %g, want 3", x[mid])
	}
}

// Defeating direct Newton and the gmin rung must push the ladder all the way
// to source stepping.
func TestLadderFallsBackToSourceStepping(t *testing.T) {
	in := faults.NewInjector(faults.Rule{
		Class: faults.NoConvergence, Count: 10, SpareFrom: faults.StageSource,
	})
	ws, x, mid := divider(t, in)
	st, err := Solve(ws, x, DefaultOptions())
	if err != nil {
		t.Fatalf("source fallback failed: %v", err)
	}
	if st.Strategy != "source" {
		t.Fatalf("strategy = %q, want source", st.Strategy)
	}
	if math.Abs(x[mid]-3) > 1e-9 {
		t.Fatalf("v(mid) = %g, want 3", x[mid])
	}
}

// failAt returns an injector whose Newton entry check fails exactly at the
// given (1-based, increasing) check numbers: rule j sees every check but
// those the j rules before it fired on, so it skips c − j − 1.
func failAt(checks ...int) *faults.Injector {
	rules := make([]faults.Rule, len(checks))
	for j, c := range checks {
		rules[j] = faults.Rule{Class: faults.NoConvergence, Skip: c - j - 1}
	}
	return faults.NewInjector(rules...)
}

// A source ramp that converges only on small steps gives up after its stage
// budget. Direct Newton and the first gmin stage fail (checks 1 and 2); the
// ramp's first four stages fail, quartering its step to 2^-8 of an increment,
// and from then on every third stage fails, so the step cycles through
// 2^-8, 2^-7, 2^-6 and the ramp would take some 2 500 stages to finish.
// Without the budget it does finish, once the schedule runs out.
func TestSourceRampStageBudget(t *testing.T) {
	checks := []int{1, 2}
	budget := srcStageBudget * srcSteps
	for stage := 1; stage <= budget+10; stage++ {
		if stage <= 4 || (stage-4)%3 == 0 {
			checks = append(checks, stage+2)
		}
	}
	ws, x, _ := divider(t, failAt(checks...))
	st, err := Solve(ws, x, DefaultOptions())
	if err == nil {
		t.Fatalf("the ramp finished: %+v", st)
	}
	if !errors.Is(err, faults.ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	var se *faults.SimError
	if !errors.As(err, &se) || se.Phase != "dcop" {
		t.Fatalf("missing dcop phase context: %v", err)
	}
	if st.Strategy != "source" || st.Continues != 1+budget {
		t.Fatalf("strategy %q, %d continuation stages; want source, 1 gmin + %d source", st.Strategy, st.Continues, budget)
	}
}

// With every strategy defeated, Solve must fail with the typed taxonomy:
// a dcop-phase SimError carrying the no-convergence cause.
func TestLadderExhaustionIsTyped(t *testing.T) {
	in := faults.NewInjector(faults.Rule{
		Class: faults.NoConvergence, Count: 1_000_000,
	})
	ws, x, _ := divider(t, in)
	st, err := Solve(ws, x, DefaultOptions())
	if err == nil {
		t.Fatalf("solve succeeded with every strategy defeated: %+v", st)
	}
	if !errors.Is(err, faults.ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	var se *faults.SimError
	if !errors.As(err, &se) || se.Phase != "dcop" {
		t.Fatalf("missing dcop phase context: %v", err)
	}
}
