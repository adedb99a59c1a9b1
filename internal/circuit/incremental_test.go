package circuit

import (
	"math"
	"testing"
)

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
// tanh-style soft limiting, so incremental tests exercise capture/replay,
// the state window, and the limited-journal guard.
type nlStub struct {
	name               string
	p, n               int
	g                  float64
	limitAt            float64 // |v| beyond which the device reports limiting (0 = never)
	state0             int
	spp, spn, snp, snn int
	evals              int // direct Eval count (not bypassed)
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
// template-build, capture, and replay regimes and checks the assembled
// system against the plain serial load each time.
func TestIncrementalLoadMatchesPlain(t *testing.T) {
	sys, _ := buildIncMix(t, 9)
	inc := sys.NewWorkspace()
	inc.SetDeviceBypass(1e-3, 1e-6)
	if !inc.DeviceBypassEnabled() {
		t.Fatal("device bypass did not enable")
	}
	inc.inc.doBypass = true // fixture sits below the profitability gate
	ref := sys.NewWorkspace()

	x := make([]float64, sys.N)
	for i := range x {
		x[i] = 0.3 * math.Sin(float64(i+1))
	}
	p := LoadParams{Time: 1e-6, Alpha0: 2e6, Gmin: 1e-12, SrcScale: 1, NodeGmin: 1e-9}

	step := func(what string) {
		inc.Load(x, p)
		ref.Load(x, p)
		assertStampsEqual(t, inc, ref, 1e-12, what)
	}
	step("first iteration (template build + capture)")

	// Second iteration at a barely moved iterate: replay regime.
	for i := range x {
		x[i] += 1e-9
	}
	step("bypassed iteration (replay)")
	if inc.LastLoadBypassed() == 0 {
		t.Fatal("no devices bypassed at an unchanged iterate")
	}
	if !inc.LastLoadLinearHit() {
		t.Fatal("second load missed the linear template")
	}

	// Big move: every journal must miss and recapture.
	for i := range x {
		x[i] += 0.1
	}
	step("recapture after a large move")
	if inc.LastLoadBypassed() != 0 {
		t.Fatal("bypass fired across a large iterate move")
	}

	// New Alpha0 (step-size change): template rebuild, journals keyed out.
	p.Alpha0 = 3.7e6
	step("alpha0 change (template rebuild)")
	if inc.LastLoadLinearHit() {
		t.Fatal("template hit reported for an unseen alpha0")
	}
	if inc.LastLoadBypassed() != 0 {
		t.Fatal("bypass fired across an alpha0 change")
	}
	step("steady state at new alpha0")
	if !inc.LastLoadLinearHit() || inc.LastLoadBypassed() == 0 {
		t.Fatal("steady state did not hit template + bypass")
	}
}

// TestIncrementalBypassGuards checks the one-shot suppression, the
// generation invalidation, and the NoLimit decline.
func TestIncrementalBypassGuards(t *testing.T) {
	sys, nls := buildIncMix(t, 7)
	ws := sys.NewWorkspace()
	ws.SetDeviceBypass(1e-3, 1e-6)
	ws.inc.doBypass = true // fixture sits below the profitability gate
	x := make([]float64, sys.N)
	p := LoadParams{Alpha0: 1e6, SrcScale: 1}

	ws.Load(x, p)
	ws.Load(x, p)
	if got := ws.LastLoadBypassed(); got != len(nls) {
		t.Fatalf("expected %d bypassed evals, got %d", len(nls), got)
	}

	// Generation bump invalidates every journal.
	ws.InvalidateDeviceBypass()
	ws.Load(x, p)
	if ws.LastLoadBypassed() != 0 {
		t.Fatal("bypass fired across a generation bump")
	}

	// One-shot suppression blocks replay exactly once: every nonlinear
	// device is fully evaluated, while the assembly stays incremental
	// (the linear template is still in play).
	ws.DisableBypassOnce()
	evals := nls[0].evals
	ws.Load(x, p)
	if ws.LastLoadBypassed() != 0 {
		t.Fatal("DisableBypassOnce did not suppress replay")
	}
	if nls[0].evals != evals+1 {
		t.Fatal("suppressed-replay load did not evaluate the nonlinear device")
	}
	ws.Load(x, p)
	if ws.LastLoadBypassed() != len(nls) {
		t.Fatal("bypass did not resume after the one-shot suppression")
	}

	// NoLimit bookkeeping loads always take the plain path and reset the
	// per-load counters.
	evalsBefore := nls[0].evals
	ws.Load(x, LoadParams{Alpha0: 1e6, SrcScale: 1, NoLimit: true})
	if ws.LastLoadBypassed() != 0 || ws.LastLoadLinearHit() {
		t.Fatal("NoLimit load went through the incremental path")
	}
	if nls[0].evals != evalsBefore+1 {
		t.Fatal("NoLimit load did not evaluate the nonlinear device")
	}

	// CopyStateFrom adopts foreign state and must invalidate journals.
	ws.Load(x, p)
	other := sys.NewWorkspace()
	ws.CopyStateFrom(other)
	ws.Load(x, p)
	if ws.LastLoadBypassed() != 0 {
		t.Fatal("bypass fired after adopting foreign state")
	}
}

// TestIncrementalLimitedJournalNotReplayed ensures a journal recorded under
// active limiting is never replayed, and that the Limited flag is reported
// exactly like the plain path reports it.
func TestIncrementalLimitedJournalNotReplayed(t *testing.T) {
	c := New("limited")
	a := c.Node("a")
	nl := &nlStub{name: "N", p: a, n: Ground, g: 1e-3, limitAt: 0.5}
	c.Add(&linStub{name: "L", p: a, n: Ground, g: 1e-3, c: 1e-9})
	c.Add(nl)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	ws.SetDeviceBypass(1e-3, 1e-6)
	ws.inc.doBypass = true // fixture sits below the profitability gate
	x := make([]float64, sys.N)
	x[a] = 1.0 // beyond limitAt: the capture happens under limiting
	p := LoadParams{Alpha0: 1e6, SrcScale: 1}
	ws.Load(x, p)
	if !ws.Limited {
		t.Fatal("expected a limited load")
	}
	ws.Load(x, p)
	if ws.LastLoadBypassed() != 0 {
		t.Fatal("replayed a journal recorded under active limiting")
	}

	// Below the limiting threshold the journal becomes replayable.
	x[a] = 0.1
	ws.Load(x, p)
	if ws.Limited {
		t.Fatal("limited flag stuck")
	}
	ws.Load(x, p)
	if ws.LastLoadBypassed() != 1 {
		t.Fatal("bypass did not fire on a clean journal")
	}
}

// TestIncrementalTemplateLRU exercises the Alpha0-keyed template cache:
// revisited step sizes hit, a fifth distinct Alpha0 evicts the least
// recently used way.
func TestIncrementalTemplateLRU(t *testing.T) {
	sys, _ := buildIncMix(t, 5)
	ws := sys.NewWorkspace()
	ws.SetDeviceBypass(1e-3, 1e-6)
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
	_, hits := ws.DeviceBypassCounters()
	if hits != 4 {
		t.Fatalf("expected 4 linear hits, got %d", hits)
	}
}
