package circuit

import (
	"math"
	"testing"
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
	for i := range a.M.Values {
		if diff(a.M.Values[i], b.M.Values[i]) {
			t.Fatalf("%s: matrix mismatch at slot %d: %g vs %g", what, i, a.M.Values[i], b.M.Values[i])
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

// plainWorkspace returns a workspace of sys that always sweeps its devices.
func plainWorkspace(sys *System) *Workspace {
	ws := sys.NewWorkspace()
	ws.tmpl = nil
	return ws
}

func testX(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.3 * math.Sin(float64(i+1))
	}
	return x
}

// TestStampTemplateOnLinearSystemsOnly: whether a workspace assembles through
// the template is a fact about the device list. Every workspace of a linear
// System has one, and a lane keeps it; a nonlinear System's have none.
func TestStampTemplateOnLinearSystemsOnly(t *testing.T) {
	c, _, _ := linearMix(5, 1, false)
	lin := buildMix(t, c)
	if !lin.Linear() {
		t.Fatal("the linear mix is not Linear")
	}
	ws := lin.NewWorkspace()
	if ws.tmpl == nil {
		t.Fatal("a workspace of a linear System has no stamp template")
	}
	ws.SetDevices(lin.Circuit.Devices())
	if ws.tmpl == nil {
		t.Fatal("SetDevices on a linear System dropped the template")
	}
	c, _, _ = linearMix(5, 1, true)
	nl := buildMix(t, c)
	if nl.Linear() {
		t.Fatal("the mix with cubic conductances is Linear")
	}
	if nl.NewWorkspace().tmpl != nil {
		t.Fatal("a workspace of a nonlinear System has a stamp template")
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
	ref := plainWorkspace(sys)

	x := testX(sys.N)
	p := LoadParams{Time: 1e-6, Alpha0: 2e6, Gmin: 1e-12, SrcScale: 1, NodeGmin: 1e-9}
	step := func(what string) {
		t.Helper()
		linEvals, srcEvals := lins[0].evals, src.evals
		ws.Load(x, p)
		if lins[0].evals != linEvals || src.evals != srcEvals+1 {
			t.Fatalf("%s: the templated load evaluated the conductance %d times and the source %d times, want 0 and 1",
				what, lins[0].evals-linEvals, src.evals-srcEvals)
		}
		ref.Load(x, p)
		assertStampsEqual(t, ws, ref, 1e-12, what)
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

// TestIncrementalBypassGuards: NoLimit and source-stepping loads sweep every
// device even on a templated workspace, bit for bit as a plain one does, and
// the templated loads around them stay right across an Alpha0 change.
func TestIncrementalBypassGuards(t *testing.T) {
	c, lins, _ := linearMix(4, 1, false)
	sys := buildMix(t, c)
	ws := sys.NewWorkspace()
	ref := plainWorkspace(sys)
	x := testX(sys.N)
	for _, alpha0 := range []float64{1e6, 4e6} {
		p := LoadParams{Alpha0: alpha0, SrcScale: 1}
		ws.Load(x, p)
		ref.Load(x, p)
		assertStampsEqual(t, ws, ref, 1e-12, "templated load")
		for _, plain := range []LoadParams{
			{Alpha0: alpha0, SrcScale: 1, NoLimit: true},
			{Alpha0: alpha0, SrcScale: 0.5},
		} {
			evals := lins[0].evals
			ws.Load(x, plain)
			if lins[0].evals != evals+1 {
				t.Fatalf("load %+v did not sweep the devices", plain)
			}
			ref.Load(x, plain)
			assertStampsEqual(t, ws, ref, 0, "declined load")
		}
	}
}
