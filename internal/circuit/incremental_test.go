package circuit

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"wavepipe/internal/faults"
)

// assertStampsEqual holds a's assembled system to b's within tol, relative to
// max(1, magnitude); tol 0 asks for the same bits.
func assertStampsEqual(t *testing.T, a, b *Workspace, tol float64, what string) {
	t.Helper()
	diff := func(u, v float64) bool {
		if tol == 0 {
			return math.Float64bits(u) != math.Float64bits(v)
		}
		scale := math.Max(1, math.Max(math.Abs(u), math.Abs(v)))
		return math.Abs(u-v) > tol*scale
	}
	for i := range a.F {
		if diff(a.F[i], b.F[i]) || diff(a.Q[i], b.Q[i]) || diff(a.B[i], b.B[i]) {
			t.Fatalf("%s: vector mismatch at row %d", what, i)
		}
	}
	am, bm := a.Matrix().Values, b.Matrix().Values
	for i := range am {
		if diff(am[i], bm[i]) {
			t.Fatalf("%s: matrix mismatch at slot %d: %g vs %g", what, i, am[i], bm[i])
		}
	}
	if a.Limited != b.Limited {
		t.Fatalf("%s: limited flag mismatch", what)
	}
}

// linStub is an exactly linear conductance + capacitance.
type linStub struct {
	name               string
	p, n               int
	g, c               float64
	spp, spn, snp, snn int
	evals              int // Eval count
}

func (d *linStub) Name() string       { return d.name }
func (d *linStub) Branches() int      { return 0 }
func (d *linStub) States() int        { return 0 }
func (d *linStub) Bind(int, int)      {}
func (d *linStub) LinearStamps() bool { return false }
func (d *linStub) Reserve(r *Reserver) {
	d.spp = r.J(d.p, d.p)
	d.spn = r.J(d.p, d.n)
	d.snp = r.J(d.n, d.p)
	d.snn = r.J(d.n, d.n)
}
func (d *linStub) Eval(e *EvalCtx) {
	d.evals++
	v := e.V(d.p) - e.V(d.n)
	e.AddF(d.p, d.g*v)
	e.AddF(d.n, -d.g*v)
	e.AddJ(d.spp, d.g)
	e.AddJ(d.spn, -d.g)
	e.AddJ(d.snp, -d.g)
	e.AddJ(d.snn, d.g)
	e.AddQ(d.p, d.c*v)
	e.AddQ(d.n, -d.c*v)
	e.AddJQ(d.spp, d.c)
	e.AddJQ(d.spn, -d.c)
	e.AddJQ(d.snp, -d.c)
	e.AddJQ(d.snn, d.c)
}

// srcStub is a linear source: constant conductance plus a time-varying B
// stamp, so the template's per-load source evaluation is exercised.
type srcStub struct {
	name   string
	p      int
	g, amp float64
	spp    int
	evals  int // Eval count
}

func (d *srcStub) Name() string       { return d.name }
func (d *srcStub) Branches() int      { return 0 }
func (d *srcStub) States() int        { return 0 }
func (d *srcStub) Bind(int, int)      {}
func (d *srcStub) LinearStamps() bool { return true }
func (d *srcStub) Reserve(r *Reserver) {
	d.spp = r.J(d.p, d.p)
}
func (d *srcStub) Eval(e *EvalCtx) {
	d.evals++
	e.AddF(d.p, d.g*e.V(d.p))
	e.AddJ(d.spp, d.g)
	e.AddB(d.p, d.amp*(1+e.T))
}

// nlStub is a smooth nonlinear conductance i = g·v³ with one state slot.
type nlStub struct {
	name               string
	p, n               int
	g                  float64
	state0             int
	spp, spn, snp, snn int
}

func (d *nlStub) Name() string  { return d.name }
func (d *nlStub) Branches() int { return 0 }
func (d *nlStub) States() int   { return 1 }
func (d *nlStub) Bind(_, s int) { d.state0 = s }
func (d *nlStub) Reserve(r *Reserver) {
	d.spp = r.J(d.p, d.p)
	d.spn = r.J(d.p, d.n)
	d.snp = r.J(d.n, d.p)
	d.snn = r.J(d.n, d.n)
}
func (d *nlStub) Eval(e *EvalCtx) {
	v := e.V(d.p) - e.V(d.n)
	i := d.g * v * v * v
	gd := 3 * d.g * v * v
	e.AddF(d.p, i)
	e.AddF(d.n, -i)
	e.AddJ(d.spp, gd)
	e.AddJ(d.spn, -gd)
	e.AddJ(d.snp, -gd)
	e.AddJ(d.snn, gd)
	e.SNext[d.state0] = v
}

// linearMix returns an uncompiled chain of linear conductance/capacitance
// sections driven by a source, with every section's conductance multiplied
// by scale, and its devices for evaluation counts. With nonlinear set, a
// cubic conductance sits beside every other section.
func linearMix(nodes int, scale float64, nonlinear bool) (*Circuit, []*linStub, *srcStub) {
	c := New("linmix")
	ids := make([]int, nodes+1)
	ids[0] = Ground
	for i := 1; i <= nodes; i++ {
		ids[i] = c.Node(string(rune('a' + i - 1)))
	}
	var lins []*linStub
	for i := 0; i < nodes; i++ {
		l := &linStub{name: "L", p: ids[i+1], n: ids[i], g: 1e-3 * float64(i+1) * scale, c: 1e-9}
		lins = append(lins, l)
		c.Add(l)
		if nonlinear && i%2 == 0 {
			c.Add(&nlStub{name: "N", p: ids[i+1], n: ids[i], g: 1e-4})
		}
	}
	src := &srcStub{name: "I", p: ids[1], g: 1e-6, amp: 1e-3}
	c.Add(src)
	return c, lins, src
}

func buildMix(t *testing.T, c *Circuit) *System {
	t.Helper()
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func testX(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.3 * math.Sin(float64(i+1))
	}
	return x
}

// TestStampTemplateSweepsTheNonlinearDevices: every workspace assembles
// through one stamp template, and which devices a templated load still
// evaluates is a fact about the device list. On a linear System the template
// sweeps none, and a lane keeps it; on the mix with cubic conductances it
// sweeps exactly those, in device order, its charge pass visits none (they
// book no charge), and a templated load evaluates no linear device but the
// source.
func TestStampTemplateSweepsTheNonlinearDevices(t *testing.T) {
	c, _, _ := linearMix(5, 1, false)
	lin := buildMix(t, c)
	if !lin.Linear() {
		t.Fatal("the linear mix is not Linear")
	}
	ws := lin.NewWorkspace()
	if tp := ws.template(); tp == nil || len(tp.sweep) != 0 || len(tp.charges) != 0 {
		t.Fatalf("a workspace of a linear System sweeps %v and visits %v for charge, want a template with neither", tp.sweep, tp.charges)
	}
	ws.SetDevices(lin.Circuit.Devices())
	if tp := ws.template(); tp == nil || len(tp.sweep) != 0 {
		t.Fatal("SetDevices on a linear System lost the template")
	}
	c, lins, src := linearMix(5, 1, true)
	nl := buildMix(t, c)
	if nl.Linear() {
		t.Fatal("the mix with cubic conductances is Linear")
	}
	var want []int
	for i, d := range c.Devices() {
		if _, ok := d.(*nlStub); ok {
			want = append(want, i)
		}
	}
	ws = nl.NewWorkspace()
	tp := ws.template()
	if tp == nil || !slices.Equal(tp.sweep, want) {
		t.Fatalf("a workspace of the nonlinear mix sweeps %v, want the cubic conductances %v", tp.sweep, want)
	}
	if len(tp.charges) != 0 {
		t.Fatalf("its charge pass visits %v; the cubic conductances book no charge", tp.charges)
	}
	linEvals, srcEvals := lins[0].evals, src.evals
	ws.Load(testX(nl.N), LoadParams{Alpha0: 2e6, SrcScale: 1})
	if lins[0].evals != linEvals || src.evals != srcEvals+1 {
		t.Fatalf("the templated load evaluated a linear conductance %d times and the source %d times, want 0 and 1",
			lins[0].evals-linEvals, src.evals-srcEvals)
	}
}

// TestStampTemplateOfALaneIsItsOwn: a lane workspace of a linear host, pointed
// at a variant with scaled conductances, assembles bit for bit what a
// workspace of the variant's own System assembles — which it cannot while its
// template still holds the host's values.
func TestStampTemplateOfALaneIsItsOwn(t *testing.T) {
	hostC, _, _ := linearMix(7, 1, false)
	host := buildMix(t, hostC)
	variant, _, _ := linearMix(7, 1.3, false)
	if err := host.BindLanes(variant); err != nil {
		t.Fatal(err)
	}
	lane := host.NewWorkspace()
	lane.SetDevices(variant.Devices())
	ownC, _, _ := linearMix(7, 1.3, false)
	own := buildMix(t, ownC).NewWorkspace()

	x := testX(host.N)
	for _, alpha0 := range []float64{2e6, 3.7e6} {
		p := LoadParams{Time: 1e-6, Alpha0: alpha0, Gmin: 1e-12, SrcScale: 1}
		lane.Load(x, p)
		own.Load(x, p)
		assertStampsEqual(t, lane, own, 0, "lane against the variant's own System")
	}
}

// TestIncrementalLoadMatchesPlain: on a linear mix a templated load evaluates
// the source alone, no other device, and assembles the system the plain sweep
// assembles to rounding — before and after an Alpha0 change, at an unchanged,
// a barely moved and a far moved iterate.
func TestIncrementalLoadMatchesPlain(t *testing.T) {
	c, lins, src := linearMix(9, 1, false)
	sys := buildMix(t, c)
	ws := sys.NewWorkspace()
	ref := NewSweepWorkspace(sys)

	x := testX(sys.N)
	p := LoadParams{Time: 1e-6, Alpha0: 2e6, Gmin: 1e-12, SrcScale: 1, NodeGmin: 1e-9}
	ws.template() // the probe, which the first templated load would run
	step := func(what string) {
		t.Helper()
		linEvals, srcEvals := lins[0].evals, src.evals
		ws.Load(x, p)
		if lins[0].evals != linEvals || src.evals != srcEvals+1 {
			t.Fatalf("%s: the templated load evaluated the conductance %d times and the source %d times, want 0 and 1",
				what, lins[0].evals-linEvals, src.evals-srcEvals)
		}
		ref.Load(x, p)
		assertStampsEqual(t, ws, ref.Workspace, 1e-12, what)
	}
	step("first load")
	step("same iterate")
	for i := range x {
		x[i] += 1e-9
	}
	step("barely moved iterate")
	for i := range x {
		x[i] += 0.1
	}
	step("large move")
	p.Alpha0 = 3.7e6
	step("alpha0 change")
	p.Time = 2e-6
	step("later time at the new alpha0")
}

// TestEveryLoadGoesThroughTheTemplate: NoLimit, source-stepping and split
// (AC) loads go through the stamp template as every other load does. After
// the probe they evaluate the source and no linear device, and they assemble
// what the full sweep assembles to TemplateTol: a split load its M, which it
// writes even on a linear System, and its MC. This holds on the linear mix and
// on the nonlinear one, where a swept capacitor's dQ/dx and a declared linear
// part are assembled as well, across an Alpha0 change.
func TestEveryLoadGoesThroughTheTemplate(t *testing.T) {
	for _, nonlinear := range []bool{false, true} {
		c, lins, src := linearMix(4, 1, nonlinear)
		if nonlinear {
			b := c.Node("b")
			c.Add(&capStub{name: "X", p: b, n: Ground, c: 0.7e-12, g: 1e-6})
			c.Add(&partStub{capStubQ{capStub{name: "P", p: b, n: Ground, c: 1e-12, g: 1e-6, part: true}}})
		}
		sys := buildMix(t, c)
		ws, ref := sys.NewWorkspace(), NewSweepWorkspace(sys)
		ws.template()
		x := testX(sys.N)
		for _, alpha0 := range []float64{1e6, 4e6} {
			for _, row := range []struct {
				what  string
				p     LoadParams
				split bool
			}{
				{"NoLimit", LoadParams{Alpha0: alpha0, SrcScale: 1, NoLimit: true}, false},
				{"source stepping", LoadParams{Alpha0: alpha0, SrcScale: 0.5}, false},
				{"split", LoadParams{Time: alpha0 * 1e-12, Gmin: 1e-12, SrcScale: 1}, true},
			} {
				what := fmt.Sprintf("%s load (nonlinear %v, Alpha0 %g)", row.what, nonlinear, alpha0)
				load, sweep := ws.Load, ref.Load
				if row.split {
					load, sweep = ws.LoadSplit, ref.LoadSplit
				}
				linEvals, srcEvals := lins[0].evals, src.evals
				load(x, row.p)
				if lins[0].evals != linEvals || src.evals != srcEvals+1 {
					t.Fatalf("%s: evaluated a linear conductance %d times and the source %d times, want 0 and 1",
						what, lins[0].evals-linEvals, src.evals-srcEvals)
				}
				sweep(x, row.p)
				if row.split { // M as AC reads it, before Matrix could materialize it
					for _, m := range []struct {
						name      string
						got, want []float64
					}{{"M", ws.M.Values, ref.M.Values}, {"MC", ws.MC.Values, ref.MC.Values}} {
						for i, want := range m.want {
							if d := math.Abs(m.got[i] - want); d > TemplateTol*math.Abs(want) {
								t.Fatalf("%s: %s[%d] = %g, the sweep %g", what, m.name, i, m.got[i], want)
							}
						}
					}
				}
				assertStampsEqual(t, ws, ref.Workspace, TemplateTol, what)
			}
		}
	}
}

// factorCounts is a workspace solver's (full, refactorized, reused) count.
func factorCounts(ws *Workspace) [3]int {
	s := ws.Solver
	return [3]int{s.FullFactorizations, s.Refactorizations, s.ReusedFactorizations}
}

// loadAndFactorize loads ws at x under p and factorizes, failing unless the
// counts move to want.
func loadAndFactorize(t *testing.T, ws *Workspace, x []float64, p LoadParams, want [3]int, what string) {
	t.Helper()
	ws.Load(x, p)
	if err := ws.Solver.Factorize(); err != nil {
		t.Fatal(err)
	}
	if got := factorCounts(ws); got != want {
		t.Fatalf("%s: (full, refactorized, reused) = %v, want %v", what, got, want)
	}
}

// TestKeyedLoadOnlyWhereMIsTheBlend: a templated load keys its matrix by
// Alpha0, and its repeat is answered by that key. A gmin-stepping or .NODESET
// load at the same Alpha0 adds to the blend, so it is not that matrix: it
// refactorizes, assembles what the plain sweep assembles, and leaves the key
// answering the blend. A fault harness changes nothing of M, so a load under
// one is answered by its key too.
func TestKeyedLoadOnlyWhereMIsTheBlend(t *testing.T) {
	c, _, _ := linearMix(6, 1, false)
	sys := buildMix(t, c)
	ws := sys.NewWorkspace()
	ref := NewSweepWorkspace(sys)
	x := testX(sys.N)
	p := LoadParams{Alpha0: 2e6, SrcScale: 1}
	loadAndFactorize(t, ws, x, p, [3]int{1, 0, 0}, "first load")
	loadAndFactorize(t, ws, x, p, [3]int{1, 1, 0}, "second load")
	loadAndFactorize(t, ws, x, p, [3]int{1, 1, 1}, "keyed repeat")
	want := [3]int{1, 1, 1}
	for _, extra := range []struct {
		name string
		p    LoadParams
	}{
		{"gmin stepping", LoadParams{Alpha0: 2e6, SrcScale: 1, NodeGmin: 1e-3}},
		{".NODESET", LoadParams{Alpha0: 2e6, SrcScale: 1, ClampG: 1, ClampIdx: []int{0}, ClampV: []float64{0.5}}},
	} {
		want[1]++
		loadAndFactorize(t, ws, x, extra.p, want, extra.name)
		ref.Load(x, extra.p)
		assertStampsEqual(t, ws, ref.Workspace, 1e-12, extra.name)
		want[2]++
		loadAndFactorize(t, ws, x, p, want, extra.name+", then the blend")
	}
	ws.Faults = faults.NewInjector()
	want[2]++
	loadAndFactorize(t, ws, x, p, want, "under a fault harness")
}

// TestSetDevicesDropsTheKeys: the same Alpha0 blends another matrix from a
// lane's devices, so after SetDevices a key the host's devices stored is not
// answered: the lane's first factorization at that Alpha0 refactorizes.
func TestSetDevicesDropsTheKeys(t *testing.T) {
	hostC, _, _ := linearMix(6, 1, false)
	host := buildMix(t, hostC)
	variant, _, _ := linearMix(6, 1.3, false)
	if err := host.BindLanes(variant); err != nil {
		t.Fatal(err)
	}
	ws := host.NewWorkspace()
	x := testX(host.N)
	p := LoadParams{Alpha0: 2e6, SrcScale: 1}
	loadAndFactorize(t, ws, x, p, [3]int{1, 0, 0}, "host, first load")
	loadAndFactorize(t, ws, x, p, [3]int{1, 1, 0}, "host, second load")
	ws.SetDevices(variant.Devices())
	loadAndFactorize(t, ws, x, p, [3]int{1, 2, 0}, "lane at the host's Alpha0")
	loadAndFactorize(t, ws, x, p, [3]int{1, 2, 1}, "lane, keyed repeat")
	own := buildMix(t, func() *Circuit { c, _, _ := linearMix(6, 1.3, false); return c }()).NewWorkspace()
	own.Load(x, p)
	assertStampsEqual(t, ws, own, 0, "lane against the variant's own System")
}
