package device

import (
	"math"
	"math/rand"
	"testing"

	"wavepipe/internal/circuit"
)

// loadAt builds a workspace for the circuit, seeds the limiting state by a
// warm-up pass at x, then assembles at x and returns the workspace and the
// residual R = F + alpha0·Q − B.
func loadAt(t *testing.T, c *circuit.Circuit, x []float64, alpha0 float64) (*circuit.Workspace, []float64) {
	t.Helper()
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != sys.N {
		t.Fatalf("x has length %d, system has %d unknowns", len(x), sys.N)
	}
	ws := sys.NewWorkspace()
	p := circuit.LoadParams{Alpha0: alpha0, SrcScale: 1, Gmin: 1e-12}
	ws.Load(x, p) // warm-up: seeds limiting state
	ws.FlipState()
	ws.Load(x, p)
	r := make([]float64, sys.N)
	ws.Residual(alpha0, nil, r)
	return ws, r
}

// fdJacobianCheck verifies every Jacobian column against a central finite
// difference of the residual.
func fdJacobianCheck(t *testing.T, c *circuit.Circuit, x []float64, alpha0 float64) {
	t.Helper()
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	p := circuit.LoadParams{Alpha0: alpha0, SrcScale: 1, Gmin: 1e-12}
	ws.Load(x, p)
	ws.FlipState()
	ws.Load(x, p)
	n := sys.N
	jac := make([][]float64, n)
	for i := range jac {
		jac[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			jac[i][j] = ws.Matrix().At(i, j)
		}
	}
	rp := make([]float64, n)
	rm := make([]float64, n)
	xp := make([]float64, n)
	for j := 0; j < n; j++ {
		h := 1e-7 * (1 + math.Abs(x[j]))
		copy(xp, x)
		xp[j] = x[j] + h
		ws.Load(xp, p)
		ws.Residual(alpha0, nil, rp)
		xp[j] = x[j] - h
		ws.Load(xp, p)
		ws.Residual(alpha0, nil, rm)
		for i := 0; i < n; i++ {
			fd := (rp[i] - rm[i]) / (2 * h)
			scale := 1 + math.Abs(fd) + math.Abs(jac[i][j])
			if math.Abs(fd-jac[i][j]) > 2e-3*scale {
				t.Fatalf("Jacobian (%d,%d): stamped %g, finite-diff %g", i, j, jac[i][j], fd)
			}
		}
	}
}

func TestResistorDividerResidual(t *testing.T) {
	// v1 --R1-- mid --R2-- gnd driven by 10 V: exact mid voltage 5 V.
	c := circuit.New("divider")
	in := c.Node("in")
	mid := c.Node("mid")
	c.Add(NewVSource("V1", in, circuit.Ground, DC(10)))
	c.Add(NewResistor("R1", in, mid, 1e3))
	c.Add(NewResistor("R2", mid, circuit.Ground, 1e3))
	// Unknowns: in, mid, branch current of V1 (= -10/2k flowing P->N? the
	// source supplies 5 mA out of node in, so the branch current is -5 mA
	// following the P->N convention... verify via residual = 0 instead).
	x := []float64{10, 5, -5e-3}
	_, r := loadAt(t, c, x, 0)
	for i, v := range r {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("residual[%d] = %g at exact solution (r=%v)", i, v, r)
		}
	}
}

func TestVSourceBranchCurrentSign(t *testing.T) {
	// 10 V across a single 1 kΩ resistor: i(R) = 10 mA from in to gnd, so
	// the source branch current (flowing P->N inside the source) is -10 mA.
	c := circuit.New("vr")
	in := c.Node("in")
	c.Add(NewVSource("V1", in, circuit.Ground, DC(10)))
	c.Add(NewResistor("R1", in, circuit.Ground, 1e3))
	x := []float64{10, -10e-3}
	_, r := loadAt(t, c, x, 0)
	for i, v := range r {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("residual[%d] = %g", i, v)
		}
	}
}

func TestCapacitorChargeAndJacobian(t *testing.T) {
	c := circuit.New("rc")
	n1 := c.Node("1")
	c.Add(NewISource("I1", circuit.Ground, n1, DC(1e-3)))
	c.Add(NewCapacitor("C1", n1, circuit.Ground, 1e-6))
	c.Add(NewResistor("R1", n1, circuit.Ground, 1e3))
	x := []float64{0.42}
	ws, _ := loadAt(t, c, x, 1e6)
	if got := ws.Q[0]; math.Abs(got-0.42e-6) > 1e-15 {
		t.Fatalf("Q = %g, want 4.2e-7", got)
	}
	// J = g + alpha0*C = 1e-3 + 1e6*1e-6 = 1.001.
	if got := ws.Matrix().At(0, 0); math.Abs(got-1.001) > 1e-12 {
		t.Fatalf("J(0,0) = %g, want 1.001", got)
	}
	if got := ws.B[0]; math.Abs(got-1e-3) > 1e-18 {
		t.Fatalf("B = %g, want 1e-3", got)
	}
}

func TestInductorDCShort(t *testing.T) {
	// V --L-- R to ground. In DC (alpha0=0) the inductor is a short: the
	// exact solution has v(mid) = v(in), i = v/R.
	c := circuit.New("lr")
	in := c.Node("in")
	mid := c.Node("mid")
	c.Add(NewVSource("V1", in, circuit.Ground, DC(2)))
	c.Add(NewInductor("L1", in, mid, 1e-3))
	c.Add(NewResistor("R1", mid, circuit.Ground, 100))
	// x = [v_in, v_mid, iV, iL]  (branches in device order: V then L)
	x := []float64{2, 2, -0.02, 0.02}
	_, r := loadAt(t, c, x, 0)
	for i, v := range r {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("residual[%d] = %g (r=%v)", i, v, r)
		}
	}
}

func TestInductorFluxStamp(t *testing.T) {
	c := circuit.New("l")
	in := c.Node("in")
	c.Add(NewISource("I1", circuit.Ground, in, DC(1)))
	l := NewInductor("L1", in, circuit.Ground, 2e-3)
	c.Add(l)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	x := []float64{1.5, 0.25}
	ws.Load(x, circuit.LoadParams{Alpha0: 1000, SrcScale: 1})
	// Q on the branch row is −L·i = −2e-3·0.25.
	if got := ws.Q[l.BranchIndex()]; math.Abs(got-(-5e-4)) > 1e-15 {
		t.Fatalf("flux Q = %g, want -5e-4", got)
	}
	// Branch Jacobian diagonal gets alpha0·(−L).
	if got := ws.Matrix().At(l.BranchIndex(), l.BranchIndex()); math.Abs(got-(-2)) > 1e-12 {
		t.Fatalf("J(br,br) = %g, want -2", got)
	}
}

func TestVCVSAndVCCS(t *testing.T) {
	// VCVS with gain 3 amplifying a 1 V source across a load; VCCS feeding
	// a resistor. Verify residual at the analytic solution.
	c := circuit.New("ctrl")
	inp := c.Node("in")
	out := c.Node("out")
	oi := c.Node("oi")
	c.Add(NewVSource("V1", inp, circuit.Ground, DC(1)))
	c.Add(NewVCVS("E1", out, circuit.Ground, inp, circuit.Ground, 3))
	c.Add(NewResistor("RL", out, circuit.Ground, 1e3))
	c.Add(NewVCCS("G1", circuit.Ground, oi, inp, circuit.Ground, 2e-3))
	c.Add(NewResistor("RG", oi, circuit.Ground, 1e3))
	// v(out) = 3, iE = -3 mA; VCCS pushes 2 mA from gnd to oi => v(oi) = 2.
	// x = [in, out, oi, iV1, iE1]
	x := []float64{1, 3, 2, 0, -3e-3}
	_, r := loadAt(t, c, x, 0)
	for i, v := range r {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("residual[%d] = %g (r=%v)", i, v, r)
		}
	}
}

func TestDiodeForwardCurrent(t *testing.T) {
	c := circuit.New("d")
	a := c.Node("a")
	c.Add(NewISource("I1", circuit.Ground, a, DC(1e-3)))
	c.Add(NewDiode("D1", a, circuit.Ground, DefaultDiodeModel(), 1))
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	v := 0.6
	x := []float64{v}
	p := circuit.LoadParams{SrcScale: 1, Gmin: 1e-12}
	ws.Load(x, p)
	ws.FlipState()
	ws.Load(x, p)
	want := 1e-14 * (math.Exp(v/VThermal) - 1)
	if got := ws.F[0]; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("diode current = %g, want %g", got, want)
	}
	// Conductance must be I'/V' = IS/VT·exp(v/VT).
	wantG := 1e-14 / VThermal * math.Exp(v/VThermal)
	if got := ws.Matrix().At(0, 0); math.Abs(got-wantG) > 1e-5*wantG {
		t.Fatalf("diode conductance = %g, want %g", got, wantG)
	}
}

func TestDiodeReverseSaturation(t *testing.T) {
	c := circuit.New("d")
	a := c.Node("a")
	c.Add(NewResistor("R1", a, circuit.Ground, 1e6))
	c.Add(NewDiode("D1", a, circuit.Ground, DefaultDiodeModel(), 1))
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	ws.Load([]float64{-5}, circuit.LoadParams{SrcScale: 1})
	// Reverse current ≈ −IS plus the R current −5 µA.
	if got := ws.F[0]; math.Abs(got-(-5e-6-1e-14)) > 1e-9 {
		t.Fatalf("reverse F = %g", got)
	}
}

func TestPnjlim(t *testing.T) {
	vt, vcrit := VThermal, 0.7
	// Below vcrit: untouched.
	if got := pnjlim(0.5, 0.1, vt, vcrit); got != 0.5 {
		t.Fatalf("pnjlim below vcrit = %g", got)
	}
	// Big overshoot from a positive vold: logarithmic damping.
	got := pnjlim(5, 0.6, vt, vcrit)
	if got >= 5 || got < 0.6 {
		t.Fatalf("pnjlim(5, 0.6) = %g, want damped into (0.6, 5)", got)
	}
	// Small change: untouched even above vcrit.
	if got := pnjlim(0.75, 0.74, vt, vcrit); got != 0.75 {
		t.Fatalf("small change limited: %g", got)
	}
}

func TestDiodeJacobianFD(t *testing.T) {
	c := circuit.New("dj")
	a := c.Node("a")
	b := c.Node("b")
	c.Add(NewISource("I1", circuit.Ground, a, DC(1e-3)))
	c.Add(NewResistor("R1", a, b, 50))
	model := DiodeModel{IS: 1e-14, N: 1.2, TT: 5e-9, CJ0: 2e-12, VJ: 0.8, M: 0.4}
	c.Add(NewDiode("D1", b, circuit.Ground, model, 2))
	fdJacobianCheck(t, c, []float64{0.67, 0.62}, 1e8)
	// Reverse region and forward-depletion region (v > FC·VJ) as well.
	fdJacobianCheck(t, c, []float64{-1.9, -2.0}, 1e8)
	fdJacobianCheck(t, c, []float64{0.5, 0.45}, 1e8)
}

func TestMOSFETRegions(t *testing.T) {
	model := DefaultMOSModel(NMOS)
	model.GAMMA = 0
	model.LAMBDA = 0
	m := NewMOSFET("M1", 0, 1, 2, 3, model, 10e-6, 1e-6)
	// Cutoff.
	if id, _, _, _ := m.ids(0.3, 1, 0); id != 0 {
		t.Fatalf("cutoff id = %g", id)
	}
	// Saturation: id = KP/2·W/L·vgst².
	id, gm, gds, _ := m.ids(1.7, 2.0, 0)
	wantID := 0.5 * 110e-6 * 10 * (1.7 - 0.7) * (1.7 - 0.7)
	if math.Abs(id-wantID) > 1e-12 {
		t.Fatalf("sat id = %g, want %g", id, wantID)
	}
	if gds != 0 {
		t.Fatalf("sat gds = %g, want 0 (lambda=0)", gds)
	}
	if wantGM := 110e-6 * 10 * 1.0; math.Abs(gm-wantGM) > 1e-12 {
		t.Fatalf("sat gm = %g, want %g", gm, wantGM)
	}
	// Triode: id = KP·W/L·(vgst − vds/2)·vds.
	id, _, gds, _ = m.ids(1.7, 0.4, 0)
	wantID = 110e-6 * 10 * (1.0 - 0.2) * 0.4
	if math.Abs(id-wantID) > 1e-12 {
		t.Fatalf("triode id = %g, want %g", id, wantID)
	}
	if gds <= 0 {
		t.Fatalf("triode gds = %g, want > 0", gds)
	}
	// Continuity at the saturation boundary.
	idLin, _, _, _ := m.ids(1.7, 1.0-1e-9, 0)
	idSat, _, _, _ := m.ids(1.7, 1.0+1e-9, 0)
	if math.Abs(idLin-idSat) > 1e-12 {
		t.Fatalf("discontinuous at vds=vgst: %g vs %g", idLin, idSat)
	}
}

func TestMOSFETBodyEffect(t *testing.T) {
	model := DefaultMOSModel(NMOS)
	m := NewMOSFET("M1", 0, 1, 2, 3, model, 1e-6, 1e-6)
	id0, _, _, _ := m.ids(1.5, 2, 0)
	idRev, _, _, gmbs := m.ids(1.5, 2, -1) // reverse body bias raises vth
	if idRev >= id0 {
		t.Fatalf("reverse body bias should reduce current: %g vs %g", idRev, id0)
	}
	if gmbs <= 0 {
		t.Fatalf("gmbs = %g, want > 0", gmbs)
	}
}

func mosTestCircuit(model MOSModel) (*circuit.Circuit, int) {
	c := circuit.New("mos")
	d := c.Node("d")
	g := c.Node("g")
	s := c.Node("s")
	c.Add(NewVSource("VD", d, circuit.Ground, DC(2)))
	c.Add(NewVSource("VG", g, circuit.Ground, DC(1.5)))
	c.Add(NewResistor("RS", s, circuit.Ground, 100))
	c.Add(NewMOSFET("M1", d, g, s, circuit.Ground, model, 4e-6, 1e-6))
	return c, 5 // d, g, s + 2 branch currents
}

func TestMOSFETJacobianFD(t *testing.T) {
	for _, typ := range []MOSType{NMOS, PMOS} {
		model := DefaultMOSModel(typ)
		model.CBD = 1e-14
		model.CBS = 1e-14
		c, n := mosTestCircuit(model)
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 8; trial++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64() * 1.5
			}
			fdJacobianCheck(t, c, x, 1e7)
		}
	}
}

// Property: the MOSFET channel current is antisymmetric under drain/source
// exchange (our eff-node swap implements the symmetric model).
func TestMOSFETSourceDrainSymmetry(t *testing.T) {
	model := DefaultMOSModel(NMOS)
	c := circuit.New("sym")
	d := c.Node("d")
	g := c.Node("g")
	s := c.Node("s")
	c.Add(NewISource("ID", circuit.Ground, d, DC(0)))
	c.Add(NewISource("IG", circuit.Ground, g, DC(0)))
	c.Add(NewISource("IS", circuit.Ground, s, DC(0)))
	c.Add(NewResistor("Rd", d, circuit.Ground, 1e6))
	c.Add(NewResistor("Rg", g, circuit.Ground, 1e6))
	c.Add(NewResistor("Rs", s, circuit.Ground, 1e6))
	c.Add(NewMOSFET("M1", d, g, s, circuit.Ground, model, 2e-6, 1e-6))
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	p := circuit.LoadParams{SrcScale: 1}
	rsub := func(vd, vg, vs float64) float64 {
		ws.Load([]float64{vd, vg, vs}, p)
		// Subtract the resistor's own current to isolate the channel.
		return ws.F[0] - vd/1e6
	}
	fwd := rsub(1.2, 2.0, 0.2) // drain current, vds > 0
	rev := rsub(0.2, 2.0, 1.2) // swapped terminals
	back := func(vd, vg, vs float64) float64 {
		ws.Load([]float64{vd, vg, vs}, p)
		return ws.F[2] - vs/1e6
	}(0.2, 2.0, 1.2)
	_ = rev
	if math.Abs(fwd+(-back)) > 1e-12+1e-9*math.Abs(fwd) {
		t.Fatalf("source/drain symmetry violated: fwd %g, swapped source current %g", fwd, back)
	}
}

func TestPMOSPolarity(t *testing.T) {
	model := DefaultMOSModel(PMOS)
	c := circuit.New("pmos")
	d := c.Node("d")
	g := c.Node("g")
	s := c.Node("s")
	c.Add(NewResistor("Rd", d, circuit.Ground, 1e6))
	c.Add(NewResistor("Rg", g, circuit.Ground, 1e6))
	c.Add(NewResistor("Rs", s, circuit.Ground, 1e6))
	c.Add(NewMOSFET("M1", d, g, s, s, model, 2e-6, 1e-6))
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	// PMOS on: source at 3 V, gate at 1 V (vsg = 2 > |vto|), drain at 1 V.
	ws.Load([]float64{1, 1, 3}, circuit.LoadParams{SrcScale: 1})
	chan0 := ws.F[0] - 1.0/1e6
	if chan0 >= 0 {
		t.Fatalf("PMOS drain current should flow into the drain node (negative F), got %g", chan0)
	}
	// PMOS off: gate at source potential.
	ws.Load([]float64{1, 3, 3}, circuit.LoadParams{SrcScale: 1})
	if got := ws.F[0] - 1.0/1e6; math.Abs(got) > 1e-12 {
		t.Fatalf("PMOS should be off, channel current %g", got)
	}
}

func TestModelNormalization(t *testing.T) {
	m := DiodeModel{IS: 2e-15}.normalize()
	if m.N != 1 || m.VJ != 1 || m.M != 0.5 || m.FC != 0.5 {
		t.Fatalf("normalize fills defaults: %+v", m)
	}
	if m.IS != 2e-15 {
		t.Fatalf("normalize keeps explicit values: %+v", m)
	}
}

func TestDeviceInterfaceBasics(t *testing.T) {
	r := NewResistor("R1", 0, 1, 50)
	if r.Name() != "R1" || r.Branches() != 0 || r.States() != 0 {
		t.Fatal("resistor metadata")
	}
	v := NewVSource("V1", 0, 1, DC(1))
	if v.Branches() != 1 {
		t.Fatal("vsource branch count")
	}
	l := NewInductor("L1", 0, 1, 1e-9)
	if l.Branches() != 1 {
		t.Fatal("inductor branch count")
	}
	dd := NewDiode("D1", 0, 1, DefaultDiodeModel(), 0)
	if dd.Area != 1 {
		t.Fatal("diode default area")
	}
	if dd.States() != 1 {
		t.Fatal("diode state count")
	}
	m := NewMOSFET("M1", 0, 1, 2, 3, DefaultMOSModel(NMOS), 0, 0)
	if m.W != 1e-6 || m.L != 1e-6 {
		t.Fatal("MOSFET default geometry")
	}
}
