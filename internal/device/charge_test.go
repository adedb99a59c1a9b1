package device

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"wavepipe/internal/circuit"
)

// bitsDiffer returns the first index at which a and b differ in any bit, or
// -1.
func bitsDiffer(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkChargePass holds LoadCharges to the full NoLimit Load at every given
// iterate: Q and SNext equal in every bit, and M, F and B — filled by a
// limited load at a nearby iterate first, as the last Newton iteration of a
// point leaves them — untouched.
func checkChargePass(t *testing.T, what string, c *circuit.Circuit, xs [][]float64) {
	t.Helper()
	sys, err := c.Build()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	pass, full := sys.NewWorkspace(), sys.NewWorkspace()
	near := make([]float64, sys.N)
	for _, x := range xs {
		if len(x) != sys.N {
			t.Fatalf("%s: iterate of length %d, system has %d unknowns", what, len(x), sys.N)
		}
		p := circuit.LoadParams{Time: 1e-9, Alpha0: 3e9, Gmin: 1e-12, SrcScale: 1}
		for i, v := range x {
			near[i] = 0.9*v + 0.02
		}
		for _, ws := range []*circuit.Workspace{pass, full} {
			ws.Load(near, p)
			ws.FlipState()
			ws.Load(near, p)
		}
		m := append([]float64(nil), pass.M.Values...)
		f := append([]float64(nil), pass.F...)
		b := append([]float64(nil), pass.B...)

		pass.LoadCharges(x, p)
		p.NoLimit = true
		full.Load(x, p)

		if i := bitsDiffer(pass.Q, full.Q); i >= 0 {
			t.Fatalf("%s at %v: charge pass Q[%d] = %x (%g), full load %x (%g)", what, x, i,
				math.Float64bits(pass.Q[i]), pass.Q[i], math.Float64bits(full.Q[i]), full.Q[i])
		}
		if i := bitsDiffer(pass.SNext, full.SNext); i >= 0 {
			t.Fatalf("%s at %v: charge pass SNext[%d] = %g, full load %g", what, x, i, pass.SNext[i], full.SNext[i])
		}
		if bitsDiffer(pass.M.Values, m) >= 0 || bitsDiffer(pass.F, f) >= 0 || bitsDiffer(pass.B, b) >= 0 {
			t.Fatalf("%s at %v: the charge pass wrote M, F or B", what, x)
		}
	}
}

// junctionBiases sweeps a junction with branch point fcv = FC·VJ across deep
// reverse (below the −5·n·Vt knee), weak reverse, zero, both sides of the
// branch point and the point itself, and forward conduction.
func junctionBiases(fcv float64) []float64 {
	return []float64{
		-40, -3, -0.2, -5 * VThermal, -1e-3, 0, 1e-3, 0.2,
		math.Nextafter(fcv, 0), fcv, math.Nextafter(fcv, 1), fcv + 0.05, 0.62, 0.74, 0.85,
	}
}

// TestEvalQMatchesEval: the promise behind the charge pass, device by device —
// EvalQ books what Eval books under NoLimit, from the same expressions, and
// writes nothing else. Every type that implements it, both polarities where
// there are two, biases across every branch of the charge model, and
// parameter sets that switch each charge term on and off.
func TestEvalQMatchesEval(t *testing.T) {
	t.Run("capacitor", func(t *testing.T) {
		for _, cv := range []float64{0, 1e-15, 4.7e-9} {
			c := circuit.New("c")
			a, b := c.Node("a"), c.Node("b")
			c.Add(NewCapacitor("C1", a, b, cv))
			c.Add(NewCapacitor("C2", b, circuit.Ground, 3*cv))
			c.Add(NewCapacitor("C3", circuit.Ground, a, 0.1*cv))
			checkChargePass(t, "capacitor", c, [][]float64{{0, 0}, {1.8, -0.3}, {-2.5e-3, 0.7}, {1e-9, 1}})
		}
	})
	t.Run("inductor+mutual", func(t *testing.T) {
		for _, k := range []float64{0, 0.3, 1} {
			c := circuit.New("l")
			a, b := c.Node("a"), c.Node("b")
			l1 := NewInductor("L1", a, circuit.Ground, 1e-6)
			l2 := NewInductor("L2", b, a, 4.7e-9)
			c.Add(l1)
			c.Add(l2)
			if k > 0 {
				c.Add(NewMutual("K1", l1, l2, k))
			}
			checkChargePass(t, "inductor", c, [][]float64{{0, 0, 0, 0}, {1, -1, 2e-3, -7e-4}, {0.3, 0.3, -1.5, 1e-9}})
		}
	})
	t.Run("diode", func(t *testing.T) {
		for _, m := range []DiodeModel{
			{}, // no charge at all: the pass still owes the limiting slot
			{CJ0: 10e-12},
			{TT: 10e-9},
			{IS: 1e-12, N: 1.05, TT: 10e-9, CJ0: 10e-12, VJ: 0.8, M: 0.45},
			{CJ0: 2e-12, VJ: 0.6, M: 0.33, FC: 0.7, TT: 1e-10},
		} {
			for _, area := range []float64{1, 2.5} {
				c := circuit.New("d")
				a, k := c.Node("a"), c.Node("k")
				d := NewDiode("D1", a, k, m, area)
				c.Add(d)
				c.Add(NewDiode("D2", k, circuit.Ground, m, area))
				var xs [][]float64
				for _, v := range junctionBiases(d.Model.FC * d.Model.VJ) {
					xs = append(xs, []float64{0.3 + v, 0.3}, []float64{v, 0}, []float64{-1 + v, -1})
				}
				checkChargePass(t, "diode", c, xs)
			}
		}
	})
	t.Run("bjt", func(t *testing.T) {
		ecl := DefaultBJTModel(NPN)
		ecl.TF, ecl.CJE, ecl.CJC, ecl.VAF = 0.1e-9, 0.5e-12, 0.3e-12, 60
		both := ecl
		both.TR, both.MJC, both.FC = 5e-9, 0.5, 0.6
		onlyTR := DefaultBJTModel(NPN)
		onlyTR.TR = 2e-9
		for _, m := range []BJTModel{DefaultBJTModel(NPN), ecl, both, onlyTR} {
			for _, pol := range []BJTType{NPN, PNP} {
				m.Type = pol
				sign := 1.0
				if pol == PNP {
					sign = -1
				}
				c := circuit.New("q")
				cc, bb, ee := c.Node("c"), c.Node("b"), c.Node("e")
				q := NewBJT("Q1", cc, bb, ee, m, 1.5)
				c.Add(q)
				c.Add(NewBJT("Q2", cc, bb, ee, m, 1)) // in parallel: two writers per row
				var xs [][]float64
				for _, vbe := range junctionBiases(q.Model.FC * q.Model.VJE) {
					for _, vbc := range junctionBiases(q.Model.FC * q.Model.VJC) {
						if vbe > 0.8 && vbc > 0.8 {
							continue // both junctions hard on: the first load overflows
						}
						for _, ve := range []float64{0, -1.3} {
							vb := ve + sign*vbe
							xs = append(xs, []float64{vb - sign*vbc, vb, ve})
						}
					}
				}
				checkChargePass(t, "bjt", c, xs)
			}
		}
	})
	rng := rand.New(rand.NewSource(20))
	terminals := func() [][]float64 {
		// Every combination of four rail-ish levels on D, G, S, B — both
		// drain/source orders, every region — plus random interior points.
		levels := []float64{-0.4, 0, 0.9, 1.8}
		var xs [][]float64
		for i := 0; i < 256; i++ {
			xs = append(xs, []float64{levels[i&3], levels[i>>2&3], levels[i>>4&3], levels[i>>6&3]})
		}
		for i := 0; i < 64; i++ {
			xs = append(xs, []float64{2 * rng.Float64(), 2 * rng.Float64(), 2 * rng.Float64(), rng.Float64() - 0.5})
		}
		return xs
	}
	t.Run("mosfet", func(t *testing.T) {
		junctions := DefaultMOSModel(NMOS)
		junctions.CBD, junctions.CBS = 2e-15, 3e-15
		bare := DefaultMOSModel(NMOS)
		bare.COX, bare.CGSO, bare.CGDO, bare.CGBO = 0, 0, 0, 0
		onlyCBS := bare
		onlyCBS.CBS = 1e-15
		for _, m := range []MOSModel{DefaultMOSModel(NMOS), junctions, bare, onlyCBS} {
			for _, pol := range []MOSType{NMOS, PMOS} {
				m.Type = pol
				c := circuit.New("m")
				d, g, s, b := c.Node("d"), c.Node("g"), c.Node("s"), c.Node("b")
				c.Add(NewMOSFET("M1", d, g, s, b, m, 2e-6, 0.5e-6))
				c.Add(NewMOSFET("M2", s, d, circuit.Ground, b, m, 1e-6, 1e-6))
				checkChargePass(t, "mosfet", c, terminals())
			}
		}
	})
	t.Run("ekv", func(t *testing.T) {
		bare := DefaultEKVModel(NMOS)
		bare.COX, bare.CGSO, bare.CGDO = 0, 0, 0
		for _, m := range []EKVModel{DefaultEKVModel(NMOS), bare} {
			for _, pol := range []MOSType{NMOS, PMOS} {
				m.Type = pol
				c := circuit.New("m")
				d, g, s, b := c.Node("d"), c.Node("g"), c.Node("s"), c.Node("b")
				c.Add(NewMOSFETEKV("M1", d, g, s, b, m, 2e-6, 0.5e-6))
				c.Add(NewMOSFETEKV("M2", s, d, circuit.Ground, b, m, 1e-6, 1e-6))
				c.Add(NewCapacitor("Cb", b, circuit.Ground, 1e-15)) // the model stamps no bulk row
				checkChargePass(t, "ekv", c, terminals())
			}
		}
	})
}

// depletionInline and junctionInline are the charge and current models as
// every Eval computed them before the bias-independent terms moved into the
// constructors: two powers and an exponential of model parameters alone per
// call.
func depletionInline(v, cj0, vj, mj, fc float64) (q, c float64) {
	if cj0 == 0 {
		return 0, 0
	}
	fcv := fc * vj
	if v < fcv {
		arg := 1 - v/vj
		s := math.Pow(arg, -mj)
		return cj0 * vj / (1 - mj) * (1 - arg*s), cj0 * s
	}
	f1 := vj / (1 - mj) * (1 - math.Pow(1-fc, 1-mj))
	f2 := math.Pow(1-fc, 1+mj)
	f3 := 1 - fc*(1+mj)
	q = cj0 * (f1 + (f3*(v-fcv)+mj/(2*vj)*(v*v-fcv*fcv))/f2)
	c = cj0 / f2 * (f3 + mj*v/vj)
	return q, c
}

func junctionInline(v, is, nvt, gmin float64) (i, g float64) {
	if v >= -5*nvt {
		ev := math.Exp(v / nvt)
		i = is * (ev - 1)
		g = is * ev / nvt
	} else {
		i = -is
		g = is / nvt * math.Exp(-5)
	}
	return i + gmin*v, g + gmin
}

// loadBits assembles c at every iterate, limited and unlimited, and returns
// every bit it produced.
func loadBits(t *testing.T, c *circuit.Circuit, xs [][]float64) []uint64 {
	t.Helper()
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	var bits []uint64
	for _, x := range xs {
		for _, noLimit := range []bool{false, true} {
			ws.Load(x, circuit.LoadParams{Alpha0: 2e9, Gmin: 1e-12, SrcScale: 1, NoLimit: noLimit})
			ws.FlipState()
			for _, v := range [][]float64{ws.Matrix().Values, ws.F, ws.Q, ws.SPrev} {
				for _, f := range v {
					bits = append(bits, math.Float64bits(f))
				}
			}
		}
	}
	return bits
}

// TestConstantsFollowTheConstructor: what an Eval used to compute from the
// model card on every call — the depletion model's F1, F2, F3, exp(−5), √PHI
// — now sits in the instance, so it must be rebuilt whenever the card is.
// The constructors are the only place that happens, and the reduction pass
// (Renoded) goes through them: a device rebuilt from an edited Model
// evaluates bit for bit like one built fresh with that model, and the hoisted
// terms are the inline ones.
func TestConstantsFollowTheConstructor(t *testing.T) {
	for _, v := range junctionBiases(0.4) {
		for _, mj := range []float64{0.33, 0.45, 0.5} {
			for _, fc := range []float64{0.5, 0.7} {
				dep := newDepletion(3e-12, 0.8, mj, fc)
				q, c := dep.eval(v)
				qi, ci := depletionInline(v, 3e-12, 0.8, mj, fc)
				if math.Float64bits(q) != math.Float64bits(qi) || math.Float64bits(c) != math.Float64bits(ci) {
					t.Fatalf("depletion(v=%g, mj=%g, fc=%g) = (%g, %g), inline (%g, %g)", v, mj, fc, q, c, qi, ci)
				}
			}
		}
		i, g := junction(v, 1e-14, 1.05*VThermal, 1e-12)
		ii, gi := junctionInline(v, 1e-14, 1.05*VThermal, 1e-12)
		if math.Float64bits(i) != math.Float64bits(ii) || math.Float64bits(g) != math.Float64bits(gi) {
			t.Fatalf("junction(%g) = (%g, %g), inline (%g, %g)", v, i, g, ii, gi)
		}
	}

	same := func(i int) int { return i }
	twoTerminal := [][]float64{{0.7, 0}, {-2, 0.1}, {0.45, 0.02}, {0.9, 0.1}}
	threeTerminal := [][]float64{{1, 0.7, 0}, {0.2, 0.75, 0}, {-1, -0.6, 0.2}, {0.3, 0.3, 0.3}}
	fourTerminal := [][]float64{{1.8, 0.9, 0, -0.5}, {0.1, 1.8, 0.3, 0}, {0, 1.2, 1.5, 0.2}}
	one := func(d circuit.Device, nodes ...string) *circuit.Circuit {
		c := circuit.New("one")
		for _, n := range nodes {
			c.Node(n)
		}
		c.Add(d)
		return c
	}

	dm := DiodeModel{IS: 1e-12, N: 1.05, TT: 10e-9, CJ0: 10e-12, VJ: 0.8, M: 0.45}
	d := NewDiode("D1", 0, 1, dm, 2)
	d.Model.VJ, d.Model.M, d.Model.FC, d.Model.IS = 0.6, 0.33, 0.7, 3e-13
	fresh := loadBits(t, one(NewDiode("D1", 0, 1, d.Model, 2), "a", "k"), twoTerminal)
	for what, rebuilt := range map[string]circuit.Device{
		"Renoded": d.Renoded(same), "constructor": NewDiode(d.Inst, d.P, d.N, d.Model, d.Area),
	} {
		if got := loadBits(t, one(rebuilt, "a", "k"), twoTerminal); !slices.Equal(got, fresh) {
			t.Errorf("diode rebuilt through %s evaluates differently from a fresh one", what)
		}
	}
	if got := loadBits(t, one(d, "a", "k"), twoTerminal); slices.Equal(got, fresh) {
		t.Error("a diode whose Model was edited in place evaluates like a rebuilt one: the test no longer sees the hoisted terms")
	}

	qm := DefaultBJTModel(PNP)
	qm.TF, qm.CJE, qm.CJC = 0.1e-9, 0.5e-12, 0.3e-12
	q := NewBJT("Q1", 0, 1, 2, qm, 1)
	q.Model.MJE, q.Model.VJC, q.Model.FC, q.Model.NF = 0.5, 0.6, 0.65, 1.1
	fresh = loadBits(t, one(NewBJT("Q1", 0, 1, 2, q.Model, 1), "c", "b", "e"), threeTerminal)
	if got := loadBits(t, one(q.Renoded(same), "c", "b", "e"), threeTerminal); !slices.Equal(got, fresh) {
		t.Error("BJT rebuilt through Renoded evaluates differently from a fresh one")
	}

	mm := DefaultMOSModel(NMOS)
	m := NewMOSFET("M1", 0, 1, 2, 3, mm, 2e-6, 1e-6)
	m.Model.PHI, m.Model.KP = 0.9, 60e-6
	fresh = loadBits(t, one(NewMOSFET("M1", 0, 1, 2, 3, m.Model, 2e-6, 1e-6), "d", "g", "s", "b"), fourTerminal)
	if got := loadBits(t, one(m.Renoded(same), "d", "g", "s", "b"), fourTerminal); !slices.Equal(got, fresh) {
		t.Error("MOSFET rebuilt through Renoded evaluates differently from a fresh one")
	}
}

// TestChargeWritersImplementEvalQ is the guard for the next device somebody
// adds. It reads the package's constructors from the source, demands an
// instance of each in the table below, and fails for a type whose Eval books
// charge at a generic bias, or that keeps limiting state, without
// implementing circuit.ChargeEvaler: such a device would still be simulated
// correctly — the charge pass sweeps it through its full Eval — but at the
// cost the pass exists to remove, and nobody would notice.
func TestChargeWritersImplementEvalQ(t *testing.T) {
	c := circuit.New("every device")
	n := func(name string) int { return c.Node(name) }
	vs := NewVSource("V1", n("a"), circuit.Ground, DC(1))
	l1 := NewInductor("L1", n("a"), n("b"), 1e-6)
	l2 := NewInductor("L2", n("b"), n("c"), 2e-6)
	charged := DiodeModel{CJ0: 1e-12, TT: 1e-9}
	storing := DefaultBJTModel(NPN)
	storing.TF, storing.CJE, storing.CJC = 0.1e-9, 0.5e-12, 0.3e-12
	instances := map[string]circuit.Device{
		"NewResistor":  NewResistor("R1", n("a"), n("b"), 1e3),
		"NewCapacitor": NewCapacitor("C1", n("b"), n("c"), 1e-12),
		"NewInductor":  l1,
		"NewVSource":   vs,
		"NewISource":   NewISource("I1", n("c"), circuit.Ground, DC(1e-3)),
		"NewVCVS":      NewVCVS("E1", n("d"), circuit.Ground, n("a"), n("b"), 2),
		"NewVCCS":      NewVCCS("G1", n("d"), n("c"), n("a"), n("b"), 1e-3),
		"NewCCCS":      NewCCCS("F1", n("d"), n("b"), vs, 2),
		"NewCCVS":      NewCCVS("H1", n("e"), circuit.Ground, vs, 10),
		"NewSwitch":    NewSwitch("S1", n("e"), n("d"), n("a"), n("b"), DefaultSwitchModel()),
		"NewMutual":    NewMutual("K1", l1, l2, 0.5),
		"NewDiode":     NewDiode("D1", n("c"), n("d"), charged, 1),
		"NewBJT":       NewBJT("Q1", n("e"), n("d"), n("c"), storing, 1),
		"NewMOSFET":    NewMOSFET("M1", n("e"), n("a"), n("c"), circuit.Ground, DefaultMOSModel(NMOS), 1e-6, 1e-6),
		"NewMOSFETEKV": NewMOSFETEKV("M2", n("d"), n("b"), n("e"), circuit.Ground, DefaultEKVModel(PMOS), 1e-6, 1e-6),
	}

	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	constructors := 0
	for _, fi := range files {
		if !strings.HasSuffix(fi.Name(), ".go") || strings.HasSuffix(fi.Name(), "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, fi.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "New") || fn.Type.Results == nil {
				continue
			}
			if _, ptr := fn.Type.Results.List[0].Type.(*ast.StarExpr); !ptr {
				continue // not a device: devices are built by pointer
			}
			constructors++
			if instances[fn.Name.Name] == nil {
				t.Errorf("%s: no instance in this test's table — add one, so that its charge contract is checked", fn.Name.Name)
			}
		}
	}
	if constructors != len(instances) {
		t.Errorf("found %d constructors in the source, the table holds %d", constructors, len(instances))
	}

	// Order matters to Build only for the devices holding references.
	for _, name := range []string{"NewVSource", "NewInductor"} {
		c.Add(instances[name])
	}
	c.Add(l2)
	for name, d := range instances {
		if name != "NewVSource" && name != "NewInductor" {
			c.Add(d)
		}
	}
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20))
	x := make([]float64, sys.N)
	for i := range x {
		x[i] = 0.2 + 0.5*rng.Float64()
	}
	for name, d := range instances {
		ws := sys.NewWorkspace()
		ws.SetDevices([]circuit.Device{d})
		ws.Load(x, circuit.LoadParams{Alpha0: 1e9, Gmin: 1e-12, SrcScale: 1, NoLimit: true})
		books := d.States() > 0
		for _, q := range ws.Q {
			books = books || q != 0
		}
		_, ok := d.(circuit.ChargeEvaler)
		switch {
		case books && !ok:
			t.Errorf("%s: %T books charge or limiting state and does not implement circuit.ChargeEvaler", name, d)
		case !books && ok:
			t.Errorf("%s: %T implements circuit.ChargeEvaler and books nothing here: the instance does not exercise it", name, d)
		}
	}
}
