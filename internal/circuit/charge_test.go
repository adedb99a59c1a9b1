package circuit

import (
	"math"
	"strings"
	"testing"
)

// capStub is a capacitor c in parallel with a conductance g between p and n,
// counting how it is called. It writes Q and does not implement ChargeEvaler:
// the charge pass must reach it through Eval.
type capStub struct {
	name               string
	p, n               int
	c, g               float64
	spp, spn, snp, snn int
	evals, evalQs      int
	armed              bool // panic in Eval (a device the Build-time probe cannot evaluate)
}

func (d *capStub) Name() string  { return d.name }
func (d *capStub) Branches() int { return 0 }
func (d *capStub) States() int   { return 0 }
func (d *capStub) Bind(int, int) {}
func (d *capStub) Reserve(r *Reserver) {
	d.spp = r.J(d.p, d.p)
	d.spn = r.J(d.p, d.n)
	d.snp = r.J(d.n, d.p)
	d.snn = r.J(d.n, d.n)
}
func (d *capStub) Eval(e *EvalCtx) {
	if d.armed {
		panic("capStub: armed")
	}
	d.evals++
	v := e.V(d.p) - e.V(d.n)
	e.AddF(d.p, d.g*v)
	e.AddF(d.n, -d.g*v)
	e.AddJ(d.spp, d.g)
	e.AddJ(d.spn, -d.g)
	e.AddJ(d.snp, -d.g)
	e.AddJ(d.snn, d.g)
	if d.c != 0 {
		d.bookQ(e)
		e.AddJQ(d.spp, d.c)
		e.AddJQ(d.spn, -d.c)
		e.AddJQ(d.snp, -d.c)
		e.AddJQ(d.snn, d.c)
	}
}
func (d *capStub) bookQ(e *EvalCtx) {
	q := d.c * (e.V(d.p) - e.V(d.n))
	e.AddQ(d.p, q)
	e.AddQ(d.n, -q)
}

// capStubQ is capStub keeping the ChargeEvaler promise.
type capStubQ struct{ capStub }

func (d *capStubQ) EvalQ(e *EvalCtx) {
	d.evalQs++
	if d.c != 0 {
		d.bookQ(e)
	}
}

// chargeMix is a five-node chain of the three kinds of device a charge pass
// tells apart: conductances that book nothing (c = 0, no EvalQ), capacitors
// that write Q without EvalQ, and capacitors with it.
func chargeMix(armed bool) (c *Circuit, plain, viaEval []*capStub, viaEvalQ []*capStubQ) {
	c = New("charge mix")
	node := func(i int) int {
		if i == 0 {
			return Ground
		}
		return c.Node(string(rune('a' + i)))
	}
	for i := 0; i < 5; i++ {
		g := &capStub{name: "G", p: node(i), n: node(i + 1), g: 1e-3 * float64(i+1)}
		ce := &capStub{name: "CE", p: node(i + 1), n: node(i), c: 1e-12 * float64(i+2), g: 1e-6, armed: armed && i == 2}
		cq := &capStubQ{capStub{name: "CQ", p: node(i + 1), n: Ground, c: 0.3e-12 * float64(i+1)}}
		c.Add(g)
		c.Add(ce)
		c.Add(cq)
		plain, viaEval, viaEvalQ = append(plain, g), append(viaEval, ce), append(viaEvalQ, cq)
	}
	return c, plain, viaEval, viaEvalQ
}

func testIterate(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.37*float64(i+1) - 0.11*float64(i*i)
	}
	return x
}

// fullQ is the oracle: the Q of a full NoLimit load on a fresh workspace of
// the same system and device list.
func fullQ(ws *Workspace, x []float64, p LoadParams) []float64 {
	o := ws.Sys.NewWorkspace()
	o.SetDevices(ws.Devices())
	p.NoLimit = true
	o.Load(x, p)
	return o.Q
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: Q[%d] = %x (%g), full load %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestChargePassVisitsOnlyWhatBooksCharge: a device that writes Q without
// EvalQ is swept through its Eval and its charge arrives; one with EvalQ is
// swept through that alone; one that writes no Q is not visited at all.
func TestChargePassVisitsOnlyWhatBooksCharge(t *testing.T) {
	c, plain, viaEval, viaEvalQ := chargeMix(false)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(sys.chargeDevs), len(viaEval)+len(viaEvalQ); got != want {
		t.Fatalf("%d devices listed for the charge pass, want the %d that book charge", got, want)
	}
	ws := sys.NewWorkspace()
	x := testIterate(sys.N)
	p := LoadParams{Alpha0: 1e9, SrcScale: 1}
	ws.Load(x, p)
	want := fullQ(ws, x, p)
	for _, d := range c.devices {
		switch d := d.(type) {
		case *capStub:
			d.evals = 0
		case *capStubQ:
			d.evals = 0
		}
	}
	for i := range ws.Q {
		ws.Q[i] = math.NaN() // the pass starts Q from zero, whatever it finds
	}
	ws.LoadCharges(x, p)
	sameBits(t, "mixed chain", ws.Q, want)
	for _, d := range plain {
		if d.evals != 0 {
			t.Errorf("%s writes no Q and was evaluated %d times", d.name, d.evals)
		}
	}
	for _, d := range viaEval {
		if d.evals != 1 {
			t.Errorf("%s writes Q without EvalQ: evaluated %d times, want once", d.name, d.evals)
		}
	}
	for _, d := range viaEvalQ {
		if d.evals != 0 || d.evalQs != 1 {
			t.Errorf("%s has EvalQ: %d Eval and %d EvalQ calls, want 0 and 1", d.name, d.evals, d.evalQs)
		}
	}
}

// TestChargePassAfterFailedProbe: when a device panics under the Build-time
// probe nothing is known about who writes Q, and the pass sweeps every device
// — the cost of the load it replaced, and its Q.
func TestChargePassAfterFailedProbe(t *testing.T) {
	c, plain, viaEval, _ := chargeMix(true)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The conductances write no Q: only a failed probe lists them.
	if len(sys.chargeDevs) != len(c.devices) {
		t.Fatalf("%d of %d devices listed: the probe did not fail, or its fallback lost devices", len(sys.chargeDevs), len(c.devices))
	}
	for _, d := range viaEval {
		d.armed = false
	}
	ws := sys.NewWorkspace()
	x := testIterate(sys.N)
	p := LoadParams{Alpha0: 1e9, SrcScale: 1}
	want := fullQ(ws, x, p)
	for _, d := range plain {
		d.evals = 0
	}
	ws.LoadCharges(x, p)
	sameBits(t, "failed probe", ws.Q, want)
	for _, d := range plain {
		if d.evals != 1 {
			t.Errorf("%s evaluated %d times by the pass, want once", d.name, d.evals)
		}
	}
}

// TestChargePassOnLaneVariant: a lane workspace under SetDevices books the
// charges of its own variant's instances, not the host's.
func TestChargePassOnLaneVariant(t *testing.T) {
	host, _, _, _ := chargeMix(false)
	sys, err := host.Build()
	if err != nil {
		t.Fatal(err)
	}
	variant, _, ve, vq := chargeMix(false)
	for _, d := range ve {
		d.c *= 1.7
	}
	for _, d := range vq {
		d.c *= 0.6
	}
	if err := sys.BindLanes(variant); err != nil {
		t.Fatal(err)
	}
	lanes := sys.NewLaneWorkspaces(2)
	x := testIterate(sys.N)
	p := LoadParams{Alpha0: 1e9, SrcScale: 1}
	lanes[1].LoadCharges(x, p) // planned against the host's devices…
	lanes[1].SetDevices(variant.devices)
	lanes[1].LoadCharges(x, p) // …and again against the variant's
	lanes[0].LoadCharges(x, p)
	sameBits(t, "variant lane", lanes[1].Q, fullQ(lanes[1], x, p))
	sameBits(t, "host lane", lanes[0].Q, fullQ(lanes[0], x, p))
	if i := 1; lanes[0].Q[i] == lanes[1].Q[i] {
		t.Fatalf("both lanes book Q[%d] = %g: the variant's values did not arrive", i, lanes[0].Q[i])
	}
}

// TestBindLanesRefusesChargeWhereHostHasNone: a lane closes its points with
// the host's list of charge devices, so a variant that stores charge in a
// slot where the host's device stores none would lose it silently. BindLanes
// refuses it; the other way round is harmless and admitted.
func TestBindLanesRefusesChargeWhereHostHasNone(t *testing.T) {
	build := func(charged bool) *Circuit {
		c := New("pair")
		a := c.Node("a")
		c.Add(&capStub{name: "G1", p: a, n: Ground, g: 1e-3})
		if charged {
			c.Add(&capStubQ{capStub{name: "X1", p: a, n: Ground, c: 1e-12}})
		} else {
			c.Add(&capStub{name: "X1", p: a, n: Ground, g: 1e-3})
		}
		return c
	}
	sys, err := build(false).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.BindLanes(build(true)); err == nil || !strings.Contains(err.Error(), "stores charge") {
		t.Fatalf("lane with a charge device where the host has none: err = %v", err)
	}
	sys, err = build(true).Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.BindLanes(build(false)); err != nil {
		t.Fatalf("lane without charge where the host has some: %v", err)
	}
}
