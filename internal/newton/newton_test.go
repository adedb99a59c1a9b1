package newton

import (
	"errors"
	"math"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/device"
	"wavepipe/internal/num"
)

func build(t *testing.T, add func(*circuit.Circuit)) *circuit.Workspace {
	t.Helper()
	c := circuit.New("t")
	add(c)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys.NewWorkspace()
}

func TestLinearConvergesInOneIteration(t *testing.T) {
	ws := build(t, func(c *circuit.Circuit) {
		in := c.Node("in")
		mid := c.Node("mid")
		c.Add(device.NewVSource("V1", in, circuit.Ground, device.DC(6)))
		c.Add(device.NewResistor("R1", in, mid, 1e3))
		c.Add(device.NewResistor("R2", mid, circuit.Ground, 2e3))
	})
	x := make([]float64, ws.Sys.N)
	r := make([]float64, ws.Sys.N)
	dx := make([]float64, ws.Sys.N)
	opts := DefaultOptions()
	opts.Damping = 0 // the 6 V jump would otherwise be clamped, and a clamped step is not certified
	res, err := Solve(ws, x, circuit.LoadParams{SrcScale: 1}, nil, opts, r, dx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iters != 1 {
		t.Fatalf("result %+v", res)
	}
	if math.Abs(x[1]-4) > 1e-9 {
		t.Fatalf("v(mid) = %g, want 4", x[1])
	}
}

func TestWarmStartConvergesInOneIteration(t *testing.T) {
	ws := build(t, func(c *circuit.Circuit) {
		in := c.Node("in")
		c.Add(device.NewVSource("V1", in, circuit.Ground, device.DC(2)))
		c.Add(device.NewResistor("R1", in, circuit.Ground, 1e3))
	})
	// Exact solution as the starting iterate: one confirming iteration.
	x := []float64{2, -2e-3}
	r := make([]float64, 2)
	dx := make([]float64, 2)
	res, err := Solve(ws, x, circuit.LoadParams{SrcScale: 1}, nil, DefaultOptions(), r, dx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 1 {
		t.Fatalf("warm start took %d iterations", res.Iters)
	}
}

func TestNonlinearDiodeConvergence(t *testing.T) {
	ws := build(t, func(c *circuit.Circuit) {
		in := c.Node("in")
		a := c.Node("a")
		c.Add(device.NewVSource("V1", in, circuit.Ground, device.DC(5)))
		c.Add(device.NewResistor("R1", in, a, 1e3))
		c.Add(device.NewDiode("D1", a, circuit.Ground, device.DefaultDiodeModel(), 1))
	})
	x := make([]float64, ws.Sys.N)
	r := make([]float64, ws.Sys.N)
	dx := make([]float64, ws.Sys.N)
	res, err := Solve(ws, x, circuit.LoadParams{SrcScale: 1, Gmin: 1e-12}, nil, DefaultOptions(), r, dx)
	if err != nil {
		t.Fatal(err)
	}
	// Diode drop ≈ 0.65–0.75 V with ≈4.3 mA through 1 kΩ.
	if x[1] < 0.6 || x[1] > 0.8 {
		t.Fatalf("diode voltage = %g", x[1])
	}
	// KVL: the solved point must satisfy the full circuit equation.
	if math.Abs((5-x[1])/1e3-1e-14*(math.Exp(x[1]/device.VThermal)-1)) > 1e-6 {
		t.Fatalf("current mismatch at v=%g", x[1])
	}
	if res.Iters < 3 {
		t.Fatalf("suspiciously fast for an exponential: %d iters", res.Iters)
	}
}

func TestIterationLimit(t *testing.T) {
	ws := build(t, func(c *circuit.Circuit) {
		in := c.Node("in")
		a := c.Node("a")
		c.Add(device.NewVSource("V1", in, circuit.Ground, device.DC(5)))
		c.Add(device.NewResistor("R1", in, a, 1))
		c.Add(device.NewDiode("D1", a, circuit.Ground, device.DefaultDiodeModel(), 1))
	})
	x := make([]float64, ws.Sys.N)
	r := make([]float64, ws.Sys.N)
	dx := make([]float64, ws.Sys.N)
	opts := DefaultOptions()
	opts.MaxIter = 2 // hopeless for a hard diode
	_, err := Solve(ws, x, circuit.LoadParams{SrcScale: 1, Gmin: 1e-12}, nil, opts, r, dx)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
}

func TestSingularMatrixError(t *testing.T) {
	ws := build(t, func(c *circuit.Circuit) {
		a := c.Node("a")
		// Current source into a node with only a capacitor: DC-singular.
		c.Add(device.NewISource("I1", circuit.Ground, a, device.DC(1e-3)))
		c.Add(device.NewCapacitor("C1", a, circuit.Ground, 1e-9))
	})
	x := make([]float64, ws.Sys.N)
	r := make([]float64, ws.Sys.N)
	dx := make([]float64, ws.Sys.N)
	if _, err := Solve(ws, x, circuit.LoadParams{SrcScale: 1}, nil, DefaultOptions(), r, dx); err == nil {
		t.Fatal("singular DC system must fail")
	}
}

func TestDampingLimitsUpdates(t *testing.T) {
	ws := build(t, func(c *circuit.Circuit) {
		in := c.Node("in")
		c.Add(device.NewVSource("V1", in, circuit.Ground, device.DC(100)))
		c.Add(device.NewResistor("R1", in, circuit.Ground, 1))
	})
	x := make([]float64, ws.Sys.N)
	r := make([]float64, ws.Sys.N)
	dx := make([]float64, ws.Sys.N)
	opts := DefaultOptions()
	opts.Damping = 1 // at most 1 V/A per component per iteration
	opts.MaxIter = 500
	res, err := Solve(ws, x, circuit.LoadParams{SrcScale: 1}, nil, opts, r, dx)
	if err != nil {
		t.Fatal(err)
	}
	// 100 V target at 1 V per iteration: needs ≈100 clamped updates.
	if res.Iters < 100 {
		t.Fatalf("damping not applied: %d iters", res.Iters)
	}
	if math.Abs(x[0]-100) > 1e-6 {
		t.Fatalf("v = %g", x[0])
	}
}

func TestQhistEntersResidual(t *testing.T) {
	// A capacitor integrated with Alpha0 and a qhist vector reproduces the
	// backward-Euler update of an RC discharge step by step.
	ws := build(t, func(c *circuit.Circuit) {
		a := c.Node("a")
		c.Add(device.NewResistor("R1", a, circuit.Ground, 1e3))
		c.Add(device.NewCapacitor("C1", a, circuit.Ground, 1e-6))
	})
	v0 := 2.0
	h := 1e-4
	alpha0 := 1 / h
	qhist := []float64{-v0 * 1e-6 / h} // −q(t0)/h
	x := []float64{v0}
	r := make([]float64, 1)
	dx := make([]float64, 1)
	_, err := Solve(ws, x, circuit.LoadParams{Alpha0: alpha0, SrcScale: 1}, qhist, DefaultOptions(), r, dx)
	if err != nil {
		t.Fatal(err)
	}
	// BE: v1 = v0/(1 + h/RC) = 2/(1.1).
	want := v0 / (1 + h/(1e3*1e-6))
	if !num.EqualWithin(x[0], want, 1e-9) {
		t.Fatalf("v1 = %g, want %g", x[0], want)
	}
}
