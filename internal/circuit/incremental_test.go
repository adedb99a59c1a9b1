package circuit

import (
	"math"
	"testing"
)

// assertStampsEqual holds a's assembled system to b's within tol, relative to
// max(1, magnitude).
func assertStampsEqual(t *testing.T, a, b *Workspace, tol float64, what string) {
	t.Helper()
	diff := func(u, v float64) bool {
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

// linStub is an exactly linear conductance + capacitance with a marker, so
// incremental tests exercise the template layer.
type linStub struct {
	name               string
	p, n               int
	g, c               float64
	spp, spn, snp, snn int
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
// stamp, so incremental tests exercise the per-load source re-evaluation.
type srcStub struct {
	name   string
	p      int
	g, amp float64
	spp    int
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
	e.AddF(d.p, d.g*e.V(d.p))
	e.AddJ(d.spp, d.g)
	e.AddB(d.p, d.amp*(1+e.T))
}

// nlStub is a smooth nonlinear conductance i = g·v³ with one state slot and
// a limiting threshold, so incremental tests exercise the plain evaluation of
// nonlinear devices on top of the template and the Limited flag.
type nlStub struct {
	name               string
	p, n               int
	g                  float64
	limitAt            float64 // |v| beyond which the device reports limiting (0 = never)
	state0             int
	spp, spn, snp, snn int
	evals              int // Eval count
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
	d.evals++
	v := e.V(d.p) - e.V(d.n)
	if d.limitAt > 0 && math.Abs(v) > d.limitAt && !e.NoLimit {
		e.Limited = true
	}
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

// buildIncMix builds a mixed linear/source/nonlinear circuit and returns the
// compiled system plus the nonlinear devices for eval counting.
func buildIncMix(t *testing.T, nodes int) (*System, []*nlStub) {
	t.Helper()
	c := New("incmix")
	ids := make([]int, nodes+1)
	ids[0] = Ground
	for i := 1; i <= nodes; i++ {
		ids[i] = c.Node(string(rune('a' + i - 1)))
	}
	var nls []*nlStub
	for i := 0; i < nodes; i++ {
		c.Add(&linStub{name: "L", p: ids[i+1], n: ids[i], g: 1e-3 * float64(i+1), c: 1e-9})
		if i%2 == 0 {
			nl := &nlStub{name: "N", p: ids[i+1], n: ids[i], g: 1e-4}
			nls = append(nls, nl)
			c.Add(nl)
		}
	}
	c.Add(&srcStub{name: "I", p: ids[1], g: 1e-6, amp: 1e-3})
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys, nls
}

// TestIncrementalLoadMatchesPlain drives the incremental path through the
// template-build, template-hit and rebuild regimes and checks the assembled
// system against the plain serial load each time, and that every nonlinear
// device is evaluated on every load.
func TestIncrementalLoadMatchesPlain(t *testing.T) {
	sys, nls := buildIncMix(t, 9)
	inc := sys.NewWorkspace()
	inc.SetDeviceBypass(true)
	if inc.inc == nil {
		t.Fatal("device bypass did not enable")
	}
	ref := sys.NewWorkspace()

	x := make([]float64, sys.N)
	for i := range x {
		x[i] = 0.3 * math.Sin(float64(i+1))
	}
	p := LoadParams{Time: 1e-6, Alpha0: 2e6, Gmin: 1e-12, SrcScale: 1, NodeGmin: 1e-9}

	step := func(what string, wantHit bool) {
		t.Helper()
		evals := nls[0].evals
		inc.Load(x, p)
		if nls[0].evals != evals+1 {
			t.Fatalf("%s: the incremental load evaluated a nonlinear device %d times, want 1", what, nls[0].evals-evals)
		}
		ref.Load(x, p)
		assertStampsEqual(t, inc, ref, 1e-12, what)
		if inc.LastLoadLinearHit() != wantHit {
			t.Fatalf("%s: template hit = %v, want %v", what, !wantHit, wantHit)
		}
	}
	step("first iteration (template build)", false)

	// The template depends on Alpha0 alone: an unchanged, a barely moved and
	// a far moved iterate all start from it.
	step("same iterate", true)
	for i := range x {
		x[i] += 1e-9
	}
	step("barely moved iterate", true)
	for i := range x {
		x[i] += 0.1
	}
	step("large move", true)

	// New Alpha0 (step-size change): template rebuild.
	p.Alpha0 = 3.7e6
	step("alpha0 change (template rebuild)", false)
	step("steady state at new alpha0", true)
}

// TestIncrementalBypassGuards checks which loads the engine declines —
// NoLimit and source-stepping loads take the plain path — and that the
// Limited flag is reported exactly like the plain path reports it.
func TestIncrementalBypassGuards(t *testing.T) {
	c := New("guards")
	a := c.Node("a")
	nl := &nlStub{name: "N", p: a, n: Ground, g: 1e-3, limitAt: 0.5}
	c.Add(&linStub{name: "L", p: a, n: Ground, g: 1e-3, c: 1e-9})
	c.Add(&srcStub{name: "I", p: a, g: 1e-6, amp: 1e-3})
	c.Add(nl)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	ws.SetDeviceBypass(true)
	ref := sys.NewWorkspace()
	x := make([]float64, sys.N)
	p := LoadParams{Alpha0: 1e6, SrcScale: 1}
	ws.Load(x, p)
	ws.Load(x, p)
	if !ws.LastLoadLinearHit() {
		t.Fatal("second load missed the linear template")
	}

	for _, plain := range []LoadParams{
		{Alpha0: 1e6, SrcScale: 1, NoLimit: true},
		{Alpha0: 1e6, SrcScale: 0.5},
	} {
		evals := nl.evals
		ws.Load(x, plain)
		if ws.LastLoadLinearHit() {
			t.Fatalf("load %+v went through the incremental path", plain)
		}
		if nl.evals != evals+1 {
			t.Fatalf("load %+v did not evaluate the nonlinear device", plain)
		}
		ref.Load(x, plain)
		assertStampsEqual(t, ws, ref, 0, "declined load")
	}
	if got := ws.LinearStampHits(); got != 1 {
		t.Fatalf("%d linear hits after the declined loads, want 1", got)
	}

	for _, v := range []float64{1.0, 0.1} { // beyond limitAt, then below it
		x[a] = v
		ws.Load(x, p)
		ref.Load(x, p)
		if ws.Limited != ref.Limited || ws.Limited != (v > nl.limitAt) {
			t.Fatalf("v = %g: Limited = %v, the plain load reports %v", v, ws.Limited, ref.Limited)
		}
	}
}

// TestIncrementalTemplateLRU exercises the Alpha0-keyed template cache:
// revisited step sizes hit, a fifth distinct Alpha0 evicts the least
// recently used way.
func TestIncrementalTemplateLRU(t *testing.T) {
	sys, _ := buildIncMix(t, 5)
	ws := sys.NewWorkspace()
	ws.SetDeviceBypass(true)
	x := make([]float64, sys.N)
	load := func(alpha0 float64) bool {
		ws.Load(x, LoadParams{Alpha0: alpha0, SrcScale: 1})
		return ws.LastLoadLinearHit()
	}
	alphas := []float64{1e6, 2e6, 3e6, 4e6}
	for _, a := range alphas {
		if load(a) {
			t.Fatalf("alpha0=%g hit on first sight", a)
		}
	}
	for _, a := range alphas {
		if !load(a) {
			t.Fatalf("alpha0=%g missed on revisit", a)
		}
	}
	if load(5e6) {
		t.Fatal("fifth alpha0 hit a four-way cache")
	}
	// 1e6 was the least recently used way and must have been evicted.
	if load(1e6) {
		t.Fatal("evicted alpha0 still resident")
	}
	if hits := ws.LinearStampHits(); hits != 4 {
		t.Fatalf("expected 4 linear hits, got %d", hits)
	}
}
