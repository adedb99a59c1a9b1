package newton

import (
	"errors"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/device"
	"wavepipe/internal/faults"
)

// scratch allocates the solve scratch vectors for ws.
func scratch(ws *circuit.Workspace) (x, r, dx []float64) {
	return make([]float64, ws.Sys.N), make([]float64, ws.Sys.N), make([]float64, ws.Sys.N)
}

func linearWS(t *testing.T) *circuit.Workspace {
	return build(t, func(c *circuit.Circuit) {
		in := c.Node("in")
		mid := c.Node("mid")
		c.Add(device.NewVSource("V1", in, circuit.Ground, device.DC(6)))
		c.Add(device.NewResistor("R1", in, mid, 1e3))
		c.Add(device.NewResistor("R2", mid, circuit.Ground, 2e3))
	})
}

// A poisoned device stamp (NaN injected during assembly) must abort the
// iteration immediately with ErrNonFinite instead of spinning through the
// whole 50-iteration budget comparing against NaN.
func TestNonFiniteIterateAbortsImmediately(t *testing.T) {
	ws := linearWS(t)
	ws.Faults = faults.NewInjector(faults.Rule{Class: faults.NonFinite})
	x, r, dx := scratch(ws)
	res, err := Solve(ws, x, circuit.LoadParams{SrcScale: 1}, nil, DefaultOptions(), r, dx)
	if !errors.Is(err, faults.ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if res.Iters > 2 {
		t.Fatalf("burned %d iterations on a NaN iterate", res.Iters)
	}
	var se *faults.SimError
	if !errors.As(err, &se) || se.Phase != "newton" || se.Node < 0 {
		t.Fatalf("missing context: %+v", se)
	}
}

// A resumed iteration (Iter{Warm: true}) must carry the same guard: a NaN warm iterate fails fast.
func TestResumeSolveGuardsNonFinite(t *testing.T) {
	ws := linearWS(t)
	x, r, dx := scratch(ws)
	p := circuit.LoadParams{SrcScale: 1}
	// Prepare a valid assembly + factorization at x, as a warm start would.
	ws.Load(x, p)
	if err := ws.Solver.Factorize(); err != nil {
		t.Fatal(err)
	}
	// Poison the next assembly (the resumed iteration's continuation path
	// reloads).
	ws.Faults = faults.NewInjector(faults.Rule{Class: faults.NonFinite})
	it := Iter{Warm: true}
	done, err := it.Run(ws, x, p, nil, DefaultOptions(), r, dx)
	if err == nil {
		t.Fatalf("poisoned resume converged: done=%v after %d iterations", done, it.N)
	}
	if !errors.Is(err, faults.ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
}

func TestInjectedNoConvergence(t *testing.T) {
	ws := linearWS(t)
	ws.Faults = faults.NewInjector(faults.Rule{Class: faults.NoConvergence})
	x, r, dx := scratch(ws)
	_, err := Solve(ws, x, circuit.LoadParams{SrcScale: 1}, nil, DefaultOptions(), r, dx)
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	// The budget is spent: the same workspace solves cleanly afterwards.
	x2, r2, dx2 := scratch(ws)
	if _, err := Solve(ws, x2, circuit.LoadParams{SrcScale: 1}, nil, DefaultOptions(), r2, dx2); err != nil {
		t.Fatalf("after budget exhausted: %v", err)
	}
}

func TestInjectedSingularFactorization(t *testing.T) {
	ws := linearWS(t)
	ws.Faults = faults.NewInjector(faults.Rule{Class: faults.Singular})
	x, r, dx := scratch(ws)
	_, err := Solve(ws, x, circuit.LoadParams{SrcScale: 1}, nil, DefaultOptions(), r, dx)
	if !errors.Is(err, faults.ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

// A genuinely singular matrix (two ideal sources fighting over one node)
// must surface the same ErrSingular sentinel from the sparse layer.
func TestRealSingularMatrixIsTyped(t *testing.T) {
	ws := build(t, func(c *circuit.Circuit) {
		a := c.Node("a")
		c.Add(device.NewVSource("V1", a, circuit.Ground, device.DC(1)))
		c.Add(device.NewVSource("V2", a, circuit.Ground, device.DC(2)))
	})
	x, r, dx := scratch(ws)
	_, err := Solve(ws, x, circuit.LoadParams{SrcScale: 1}, nil, DefaultOptions(), r, dx)
	if !errors.Is(err, faults.ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}
