package circuit

import (
	"math"
	"testing"
)

// stubDevice is a minimal device for exercising the circuit plumbing: a
// conductance g between P and N with one branch and one state slot.
type stubDevice struct {
	name               string
	p, n               int
	g                  float64
	branch0            int
	state0             int
	spp, spn, snp, snn int
}

func (d *stubDevice) Name() string  { return d.name }
func (d *stubDevice) Branches() int { return 1 }
func (d *stubDevice) States() int   { return 2 }
func (d *stubDevice) Bind(b, s int) { d.branch0, d.state0 = b, s }
func (d *stubDevice) Reserve(r *Reserver) {
	d.spp = r.J(d.p, d.p)
	d.spn = r.J(d.p, d.n)
	d.snp = r.J(d.n, d.p)
	d.snn = r.J(d.n, d.n)
	r.J(d.branch0, d.branch0)
}
func (d *stubDevice) Eval(e *EvalCtx) {
	v := e.V(d.p) - e.V(d.n)
	e.AddF(d.p, d.g*v)
	e.AddF(d.n, -d.g*v)
	e.AddJ(d.spp, d.g)
	e.AddJ(d.spn, -d.g)
	e.AddJ(d.snp, -d.g)
	e.AddJ(d.snn, d.g)
	// Branch row: i = 0.
	e.AddF(d.branch0, e.X[d.branch0])
	e.AddJ(-1, 123) // ground stamp must be discarded
	e.SNext[d.state0] = 42
	e.AddQ(d.p, 1e-9*v)
	e.AddB(d.p, 2)
}

func TestNodeManagement(t *testing.T) {
	c := New("t")
	if c.Node("0") != Ground || c.Node("gnd") != Ground || c.Node("GND") != Ground {
		t.Fatal("ground aliases")
	}
	a := c.Node("a")
	b := c.Node("b")
	if a == b {
		t.Fatal("distinct nodes collide")
	}
	if got := c.Node("a"); got != a {
		t.Fatal("Node not idempotent")
	}
	if got, ok := c.FindNode("a"); !ok || got != a {
		t.Fatal("FindNode")
	}
	if _, ok := c.FindNode("zzz"); ok {
		t.Fatal("FindNode invented a node")
	}
	if g, ok := c.FindNode("0"); !ok || g != Ground {
		t.Fatal("FindNode ground")
	}
	if c.NodeName(a) != "a" || c.NodeName(Ground) != "0" {
		t.Fatal("NodeName")
	}
	if c.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
}

func TestBuildEmptyCircuitFails(t *testing.T) {
	if _, err := New("empty").Build(); err == nil {
		t.Fatal("expected error")
	}
}

func TestBuildFloatingNodeFails(t *testing.T) {
	c := New("float")
	a := c.Node("a")
	c.Node("orphan") // never connected
	c.Add(&stubDevice{name: "S1", p: a, n: Ground, g: 1})
	if _, err := c.Build(); err == nil {
		t.Fatal("expected floating-node error")
	}
}

func TestBuildAssignsBranchesAndStates(t *testing.T) {
	c := New("t")
	a := c.Node("a")
	d1 := &stubDevice{name: "S1", p: a, n: Ground, g: 1}
	d2 := &stubDevice{name: "S2", p: a, n: Ground, g: 2}
	c.Add(d1)
	c.Add(d2)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumNodes != 1 || sys.NumBranches != 2 || sys.N != 3 {
		t.Fatalf("sizes: %d nodes, %d branches, %d unknowns", sys.NumNodes, sys.NumBranches, sys.N)
	}
	if d1.branch0 != 1 || d2.branch0 != 2 {
		t.Fatalf("branch bases: %d, %d", d1.branch0, d2.branch0)
	}
	if d1.state0 != 0 || d2.state0 != 2 || sys.NumStates != 4 {
		t.Fatalf("state bases: %d, %d, total %d", d1.state0, d2.state0, sys.NumStates)
	}
}

func TestWorkspaceLoadAndResidual(t *testing.T) {
	c := New("t")
	a := c.Node("a")
	c.Add(&stubDevice{name: "S1", p: a, n: Ground, g: 0.5})
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	x := []float64{2, 0.1}
	ws.Load(x, LoadParams{Alpha0: 100, SrcScale: 0.5, NodeGmin: 1e-3})
	// F[a] = 0.5*2 + NodeGmin*2, Q[a] = 2e-9, B[a] = 0.5*2 (SrcScale).
	if got := ws.F[0]; math.Abs(got-(1+2e-3)) > 1e-15 {
		t.Fatalf("F = %g", got)
	}
	if got := ws.Q[0]; math.Abs(got-2e-9) > 1e-24 {
		t.Fatalf("Q = %g", got)
	}
	if got := ws.B[0]; math.Abs(got-1) > 1e-15 {
		t.Fatalf("B = %g", got)
	}
	// Jacobian diagonal: g + NodeGmin (AddJQ unused by the stub on diag).
	if got := ws.Matrix().At(0, 0); math.Abs(got-0.501) > 1e-15 {
		t.Fatalf("J = %g", got)
	}
	// Residual with history vector.
	r := make([]float64, 2)
	qh := []float64{7, 0}
	ws.Residual(100, qh, r)
	want := (1 + 2e-3) + 100*2e-9 + 7 - 1
	if math.Abs(r[0]-want) > 1e-12 {
		t.Fatalf("R = %g, want %g", r[0], want)
	}
	ws.Residual(100, nil, r)
	if math.Abs(r[0]-(want-7)) > 1e-12 {
		t.Fatalf("R without hist = %g", r[0])
	}
	// State plumbing.
	if ws.SNext[0] != 42 {
		t.Fatal("device state not written")
	}
	ws.FlipState()
	if ws.SPrev[0] != 42 {
		t.Fatal("FlipState")
	}
	ws2 := sys.NewWorkspace()
	ws2.CopyStateFrom(ws)
	if ws2.SPrev[0] != 42 {
		t.Fatal("CopyStateFrom")
	}
}

func TestEvalCtxGroundHandling(t *testing.T) {
	e := EvalCtx{X: []float64{3}}
	if e.V(Ground) != 0 || e.V(0) != 3 {
		t.Fatal("V")
	}
	// Adds to ground rows must be ignored without panicking.
	e.F = []float64{0}
	e.Q = []float64{0}
	e.B = []float64{0}
	e.SrcScale = 1
	e.AddF(Ground, 5)
	e.AddQ(Ground, 5)
	e.AddB(Ground, 5)
	if e.F[0] != 0 || e.Q[0] != 0 || e.B[0] != 0 {
		t.Fatal("ground adds leaked")
	}
}

func TestLoadSplitSeparatesGAndC(t *testing.T) {
	c := New("split")
	a := c.Node("a")
	c.Add(&stubDevice{name: "S1", p: a, n: Ground, g: 0.25})
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	x := []float64{2, 0}
	ws.LoadSplit(x, LoadParams{SrcScale: 1})
	// The stub stamps only static conductance; MC must stay zero and M must
	// carry g regardless of Alpha0 (which LoadSplit ignores).
	if got := ws.Matrix().At(0, 0); math.Abs(got-0.25) > 1e-15 {
		t.Fatalf("G(0,0) = %g", got)
	}
	if ws.MC == nil {
		t.Fatal("MC not allocated")
	}
	if got := ws.MC.At(0, 0); got != 0 {
		t.Fatalf("C(0,0) = %g, want 0", got)
	}
	// A second split load reuses MC and re-zeros it.
	ws.LoadSplit(x, LoadParams{SrcScale: 1})
	if got := ws.Matrix().At(0, 0); math.Abs(got-0.25) > 1e-15 {
		t.Fatalf("second split G = %g", got)
	}
}
