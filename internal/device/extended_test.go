package device

import (
	"math"
	"math/rand"
	"testing"

	"wavepipe/internal/circuit"
)

func TestBJTForwardActive(t *testing.T) {
	// NPN with base drive through a resistor: Ic ≈ BF·Ib in forward active.
	c := circuit.New("bjt")
	vcc := c.Node("vcc")
	vb := c.Node("vb")
	col := c.Node("col")
	base := c.Node("base")
	c.Add(NewVSource("VCC", vcc, circuit.Ground, DC(5)))
	c.Add(NewVSource("VB", vb, circuit.Ground, DC(1)))
	c.Add(NewResistor("RC", vcc, col, 1e3))
	c.Add(NewResistor("RB", vb, base, 10e3))
	c.Add(NewBJT("Q1", col, base, circuit.Ground, DefaultBJTModel(NPN), 1))
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	// Converge by brute force: simple damped fixed-point via the dcop path
	// would be cleaner but this package cannot import dcop; iterate Newton
	// manually through the workspace.
	x := make([]float64, sys.N)
	r := make([]float64, sys.N)
	dx := make([]float64, sys.N)
	p := circuit.LoadParams{SrcScale: 1, Gmin: 1e-12}
	for iter := 0; iter < 200; iter++ {
		ws.Load(x, p)
		ws.Residual(0, nil, r)
		if err := ws.Solver.Factorize(); err != nil {
			t.Fatal(err)
		}
		if err := ws.Solver.Solve(r, dx); err != nil {
			t.Fatal(err)
		}
		done := true
		for i := range x {
			d := math.Max(-0.3, math.Min(0.3, dx[i]))
			x[i] -= d
			if math.Abs(d) > 1e-9 {
				done = false
			}
		}
		ws.FlipState()
		if done && !ws.Limited {
			break
		}
	}
	vbe := x[base]
	if vbe < 0.55 || vbe > 0.85 {
		t.Fatalf("vbe = %g", vbe)
	}
	ib := (1 - vbe) / 10e3
	ic := (5 - x[col]) / 1e3
	if beta := ic / ib; beta < 80 || beta > 120 {
		t.Fatalf("measured beta = %g, want ≈100 (ib=%g ic=%g)", beta, ib, ic)
	}
	// Forward active: collector well above saturation.
	if x[col] < 0.5 {
		t.Fatalf("v(col) = %g: saturated", x[col])
	}
}

func TestBJTJacobianFD(t *testing.T) {
	for _, typ := range []BJTType{NPN, PNP} {
		model := DefaultBJTModel(typ)
		model.VAF = 80
		model.TF = 1e-10
		model.CJE = 1e-12
		model.CJC = 0.5e-12
		c := circuit.New("bjtfd")
		col := c.Node("c")
		base := c.Node("b")
		em := c.Node("e")
		c.Add(NewResistor("R1", col, circuit.Ground, 1e4))
		c.Add(NewResistor("R2", base, circuit.Ground, 1e4))
		c.Add(NewResistor("R3", em, circuit.Ground, 1e4))
		c.Add(NewBJT("Q1", col, base, em, model, 2))
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 6; trial++ {
			x := []float64{rng.NormFloat64(), 0.4 * rng.NormFloat64(), 0.4 * rng.NormFloat64()}
			fdJacobianCheck(t, c, x, 1e8)
		}
	}
}

func TestCCCSAndCCVS(t *testing.T) {
	// V1 pushes 1 mA through R1; F1 mirrors 2× that current into R2;
	// H1 produces 500·i(V1) volts across R3.
	c := circuit.New("ctrl")
	a := c.Node("a")
	o1 := c.Node("o1")
	o2 := c.Node("o2")
	v1 := NewVSource("V1", a, circuit.Ground, DC(1))
	c.Add(v1)
	c.Add(NewResistor("R1", a, circuit.Ground, 1e3))
	c.Add(NewCCCS("F1", circuit.Ground, o1, v1, 2))
	c.Add(NewResistor("R2", o1, circuit.Ground, 1e3))
	c.Add(NewCCVS("H1", o2, circuit.Ground, v1, 500))
	c.Add(NewResistor("R3", o2, circuit.Ground, 1e3))
	// i(V1) = −1 mA (P→N convention). F1 pushes 2·i from gnd to o1:
	// v(o1) = −2·(−1e−3)·1e3... work it out via the residual at the
	// analytic solution instead.
	// x = [a, o1, o2, iV1, iH1]
	x := []float64{1, 2e-3 * 1e3 * -1 * -1, 500 * -1e-3, -1e-3, 0.5 / 1e3}
	// v(o1): current 2·iV1 = −2 mA flows gnd→o1 through the source, i.e.
	// −2 mA is injected into o1 ⇒ v(o1) = −2 V... recompute:
	x[1] = -2
	// H1: v(o2) = 500·(−1e−3) = −0.5 V; its branch current through R3 is
	// v/R = −0.5 mA flowing out of o2 ⇒ iH1 = +0.5 mA (P→N).
	x[2] = -0.5
	x[4] = 0.5e-3
	_, r := loadAt(t, c, x, 0)
	for i, v := range r {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("residual[%d] = %g (r=%v)", i, v, r)
		}
	}
}

func TestSwitchTransitions(t *testing.T) {
	m := DefaultSwitchModel()
	m.VT = 1
	m.DV = 0.05
	sw := NewSwitch("S1", 0, 1, 2, 3, m)
	gOff, _ := sw.conductance(0)
	gOn, _ := sw.conductance(2)
	if math.Abs(gOff-1e-9) > 1e-12 {
		t.Fatalf("off conductance = %g", gOff)
	}
	if math.Abs(gOn-1) > 1e-9 {
		t.Fatalf("on conductance = %g", gOn)
	}
	// Monotone and smooth through the transition.
	prev := 0.0
	for vc := 0.9; vc <= 1.1; vc += 0.005 {
		g, dg := sw.conductance(vc)
		if g < prev {
			t.Fatalf("conductance not monotone at vc=%g", vc)
		}
		if dg < 0 {
			t.Fatalf("negative slope at vc=%g", vc)
		}
		prev = g
	}
}

func TestSwitchJacobianFD(t *testing.T) {
	c := circuit.New("sw")
	a := c.Node("a")
	b := c.Node("b")
	ctl := c.Node("ctl")
	c.Add(NewISource("I1", circuit.Ground, a, DC(1e-3)))
	c.Add(NewResistor("R1", a, circuit.Ground, 1e4))
	c.Add(NewResistor("R2", b, circuit.Ground, 1e3))
	c.Add(NewResistor("R3", ctl, circuit.Ground, 1e3))
	m := DefaultSwitchModel()
	m.VT = 0.5
	m.DV = 0.2
	c.Add(NewSwitch("S1", a, b, ctl, circuit.Ground, m))
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), 0.5 + 0.3*rng.NormFloat64()}
		fdJacobianCheck(t, c, x, 1e6)
	}
}

func TestMutualInductanceCoupling(t *testing.T) {
	// Ideal-ish transformer: drive L1 with a sine; k=0.99 coupling into L2
	// loaded by a resistor. Check the flux stamps directly.
	c := circuit.New("xfmr")
	p := c.Node("p")
	s := c.Node("s")
	l1 := NewInductor("L1", p, circuit.Ground, 1e-3)
	l2 := NewInductor("L2", s, circuit.Ground, 4e-3) // 2:1 turns ratio
	c.Add(NewISource("I1", circuit.Ground, p, DC(0)))
	c.Add(NewResistor("Rp", p, circuit.Ground, 1e3))
	c.Add(l1)
	c.Add(l2)
	c.Add(NewResistor("RL", s, circuit.Ground, 50))
	k := 0.9
	c.Add(NewMutual("K1", l1, l2, k))
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	x[l1.BranchIndex()] = 2e-3
	x[l2.BranchIndex()] = -1e-3
	ws.Load(x, circuit.LoadParams{Alpha0: 1e6, SrcScale: 1})
	m := k * math.Sqrt(1e-3*4e-3)
	wantQ1 := -1e-3*2e-3 - m*(-1e-3)
	wantQ2 := -4e-3*(-1e-3) - m*2e-3
	if math.Abs(ws.Q[l1.BranchIndex()]-wantQ1) > 1e-12 {
		t.Fatalf("flux1 = %g, want %g", ws.Q[l1.BranchIndex()], wantQ1)
	}
	if math.Abs(ws.Q[l2.BranchIndex()]-wantQ2) > 1e-12 {
		t.Fatalf("flux2 = %g, want %g", ws.Q[l2.BranchIndex()], wantQ2)
	}
	// Off-diagonal JQ entries = alpha0·(−M).
	if got := ws.Matrix().At(l1.BranchIndex(), l2.BranchIndex()); math.Abs(got-(-1e6*m)) > 1e-3 {
		t.Fatalf("J12 = %g, want %g", got, -1e6*m)
	}
}

func TestEKVRegions(t *testing.T) {
	model := DefaultEKVModel(NMOS)
	model.LAMBDA = 0
	m := NewMOSFETEKV("M1", 0, 1, 2, 3, model, 10e-6, 1e-6)
	_ = m
	// Strong inversion saturation: Id ≈ n·β/2 · (Vp−Vs)²·(2/(n... use the
	// asymptotic form F(u) → (u/2)² for large u:
	// Id → 2nβVt²·((vp−vs)/2Vt)² = nβ(vp−vs)²/2.
	eval := func(vg, vd, vs float64) float64 {
		c := circuit.New("ekv")
		dN := c.Node("d")
		gN := c.Node("g")
		sN := c.Node("s")
		c.Add(NewResistor("Rd", dN, circuit.Ground, 1e6))
		c.Add(NewResistor("Rg", gN, circuit.Ground, 1e6))
		c.Add(NewResistor("Rs", sN, circuit.Ground, 1e6))
		c.Add(NewMOSFETEKV("M1", dN, gN, sN, circuit.Ground, model, 10e-6, 1e-6))
		sys, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		ws := sys.NewWorkspace()
		ws.Load([]float64{vd, vg, vs}, circuit.LoadParams{SrcScale: 1})
		return ws.F[0] - vd/1e6
	}
	idSat := eval(1.5, 2.0, 0)
	vp := (1.5 - 0.5) / 1.35
	want := 1.35 * 110e-6 * 10 * vp * vp / 2
	if math.Abs(idSat-want) > 0.1*want {
		t.Fatalf("EKV saturation current = %g, want ≈%g", idSat, want)
	}
	// Deep subthreshold: exponential in vg with slope n·Vt per e-fold.
	i1 := eval(0.25, 0.2, 0)
	i2 := eval(0.25+1.35*VThermal, 0.2, 0)
	if ratio := i2 / i1; ratio < 2.2 || ratio > 3.2 {
		t.Fatalf("subthreshold slope ratio = %g, want ≈e", ratio)
	}
	// Symmetry: swapping drain and source negates the current.
	fwd := eval(2.0, 1.0, 0.2)
	rev := eval(2.0, 0.2, 1.0)
	if math.Abs(fwd+rev) > 1e-9*math.Abs(fwd) {
		t.Fatalf("EKV not symmetric: %g vs %g", fwd, rev)
	}
}

func TestEKVJacobianFD(t *testing.T) {
	for _, typ := range []MOSType{NMOS, PMOS} {
		model := DefaultEKVModel(typ)
		c := circuit.New("ekvfd")
		dN := c.Node("d")
		gN := c.Node("g")
		sN := c.Node("s")
		bN := c.Node("b")
		c.Add(NewResistor("Rd", dN, circuit.Ground, 1e4))
		c.Add(NewResistor("Rg", gN, circuit.Ground, 1e4))
		c.Add(NewResistor("Rs", sN, circuit.Ground, 1e4))
		c.Add(NewResistor("Rb", bN, circuit.Ground, 1e4))
		c.Add(NewMOSFETEKV("M1", dN, gN, sN, bN, model, 4e-6, 1e-6))
		rng := rand.New(rand.NewSource(21))
		for trial := 0; trial < 8; trial++ {
			x := make([]float64, 4)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			fdJacobianCheck(t, c, x, 1e7)
		}
	}
}

func TestSoftplusSqStability(t *testing.T) {
	for _, u := range []float64{-500, -100, -10, 0, 10, 100, 500} {
		f, df := softplusSq(u)
		if math.IsNaN(f) || math.IsInf(f, 0) || math.IsNaN(df) || math.IsInf(df, 0) {
			t.Fatalf("softplusSq(%g) = %g, %g", u, f, df)
		}
		if f < 0 || df < 0 {
			t.Fatalf("softplusSq(%g) negative: %g, %g", u, f, df)
		}
	}
	// Asymptotics: F(u) → (u/2)² for large u.
	f, _ := softplusSq(100)
	if math.Abs(f-2500) > 1 {
		t.Fatalf("large-u asymptote: %g", f)
	}
}
