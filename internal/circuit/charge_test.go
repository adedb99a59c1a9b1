package circuit

import (
	"math"
	"testing"
)

// capStub is a capacitor c in parallel with a conductance g between p and n,
// counting how it is called. It is no ChargeEvaler: the charge pass must not
// visit it, so it is built with c = 0.
type capStub struct {
	name               string
	p, n               int
	c, g               float64
	states             int
	part               bool // the capacitor is a declared linear part (partStub)
	spp, spn, snp, snn int
	evals, evalQs      int
}

func (d *capStub) Name() string  { return d.name }
func (d *capStub) Branches() int { return 0 }
func (d *capStub) States() int   { return d.states }
func (d *capStub) Bind(int, int) {}
func (d *capStub) Reserve(r *Reserver) {
	d.spp = r.J(d.p, d.p)
	d.spn = r.J(d.p, d.n)
	d.snp = r.J(d.n, d.p)
	d.snn = r.J(d.n, d.n)
}
func (d *capStub) Eval(e *EvalCtx) {
	d.evals++
	v := e.V(d.p) - e.V(d.n)
	e.AddF(d.p, d.g*v)
	e.AddF(d.n, -d.g*v)
	e.AddJ(d.spp, d.g)
	e.AddJ(d.spn, -d.g)
	e.AddJ(d.snp, -d.g)
	e.AddJ(d.snn, d.g)
	if d.books(e) {
		d.stampC(e)
	}
}

// books reports whether a pass books the capacitor: it has one, and a
// templated pass does not hold it already.
func (d *capStub) books(e *EvalCtx) bool { return d.c != 0 && !(d.part && e.Templated) }

func (d *capStub) stampC(e *EvalCtx) {
	d.bookQ(e)
	e.AddJQ(d.spp, d.c)
	e.AddJQ(d.spn, -d.c)
	e.AddJQ(d.snp, -d.c)
	e.AddJQ(d.snn, d.c)
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
	if d.books(e) {
		d.bookQ(e)
	}
}

// partStub is capStubQ declaring its capacitor as its constant linear part,
// which the stamp template holds.
type partStub struct{ capStubQ }

func (d *partStub) StampLinearPart(e *EvalCtx) { d.stampC(e) }

// chargeMix is a five-node chain of the kinds of device a charge pass tells
// apart: conductances that book nothing and are no ChargeEvaler, grounded
// capacitors with EvalQ, and grounded capacitors declared as linear parts —
// without limiting state (the template books them whole) on even sections,
// with one slot (the pass still visits them) on odd ones. No row sums more
// than two charges, so their order cannot move a bit.
func chargeMix() (c *Circuit, plain []*capStub, charged []*capStubQ, parts []*partStub) {
	c = New("charge mix")
	node := func(i int) int {
		if i == 0 {
			return Ground
		}
		return c.Node(string(rune('a' + i)))
	}
	for i := 0; i < 5; i++ {
		g := &capStub{name: "G", p: node(i), n: node(i + 1), g: 1e-3 * float64(i+1)}
		cq := &capStubQ{capStub{name: "CQ", p: node(i + 1), n: Ground, c: 0.3e-12 * float64(i+1)}}
		lp := &partStub{capStubQ{capStub{name: "CP", p: node(i + 1), n: Ground, c: 1e-12 * float64(i+2), g: 1e-6, states: i % 2, part: true}}}
		c.Add(g)
		c.Add(cq)
		c.Add(lp)
		plain, charged, parts = append(plain, g), append(charged, cq), append(parts, lp)
	}
	return c, plain, charged, parts
}

func testIterate(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.37*float64(i+1) - 0.11*float64(i*i)
	}
	return x
}

// fullQ is the oracle: the Q of a NoLimit load by the full sweep on a fresh
// workspace of the same system and device list.
func fullQ(ws *Workspace, x []float64, p LoadParams) []float64 {
	o := NewSweepWorkspace(ws.Sys)
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

// TestChargePassVisitsOnlyWhatBooksCharge: the charge pass books through EvalQ
// alone, and visits exactly the swept ChargeEvalers less the declared linear
// parts without limiting state; a device that is no ChargeEvaler is not
// visited at all. Its Q is the full load's, bit for bit.
func TestChargePassVisitsOnlyWhatBooksCharge(t *testing.T) {
	c, plain, charged, parts := chargeMix()
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	x := testIterate(sys.N)
	p := LoadParams{Alpha0: 1e9, SrcScale: 1}
	ws.Load(x, p)
	want := fullQ(ws, x, p)
	for _, d := range plain {
		d.evals = 0
	}
	for _, d := range charged {
		d.evals = 0
	}
	for _, d := range parts {
		d.evals = 0
	}
	for i := range ws.Q {
		ws.Q[i] = math.NaN() // the pass starts Q from zero, whatever it finds
	}
	ws.BookCharges(x, p)
	sameBits(t, "mixed chain", ws.Q, want)
	for _, d := range plain {
		if d.evals != 0 {
			t.Errorf("%s is no ChargeEvaler and was evaluated %d times", d.name, d.evals)
		}
	}
	for _, d := range charged {
		if d.evals != 0 || d.evalQs != 1 {
			t.Errorf("%s has EvalQ: %d Eval and %d EvalQ calls, want 0 and 1", d.name, d.evals, d.evalQs)
		}
	}
	for i, d := range parts {
		if want := i % 2; d.evals != 0 || d.evalQs != want {
			t.Errorf("%s declares a linear part and keeps %d state slots: %d Eval and %d EvalQ calls, want 0 and %d",
				d.name, d.states, d.evals, d.evalQs, want)
		}
	}
}

// TestChargePassOnLaneVariant: a lane workspace under SetDevices books the
// charges of its own variant's instances, not the host's.
func TestChargePassOnLaneVariant(t *testing.T) {
	host, _, _, _ := chargeMix()
	sys, err := host.Build()
	if err != nil {
		t.Fatal(err)
	}
	variant, _, vq, vp := chargeMix()
	for _, d := range vq {
		d.c *= 0.6
	}
	for _, d := range vp {
		d.c *= 1.7
	}
	if err := sys.BindLanes(variant); err != nil {
		t.Fatal(err)
	}
	lanes := sys.NewLaneWorkspaces(2)
	x := testIterate(sys.N)
	p := LoadParams{Alpha0: 1e9, SrcScale: 1}
	lanes[1].BookCharges(x, p) // templated from the host's devices…
	lanes[1].SetDevices(variant.devices)
	lanes[1].BookCharges(x, p) // …and again from the variant's
	lanes[0].BookCharges(x, p)
	sameBits(t, "variant lane", lanes[1].Q, fullQ(lanes[1], x, p))
	sameBits(t, "host lane", lanes[0].Q, fullQ(lanes[0], x, p))
	if i := 1; lanes[0].Q[i] == lanes[1].Q[i] {
		t.Fatalf("both lanes book Q[%d] = %g: the variant's values did not arrive", i, lanes[0].Q[i])
	}
}

// TestBindLanesAdmitsChargeWhereHostHasNone: a lane's template lists its own
// charge devices, so a variant may store charge in a slot where the host's
// device stores none. BindLanes admits it, and the lane's charge pass books
// that charge: its Q is the full NoLimit load's, bit for bit.
func TestBindLanesAdmitsChargeWhereHostHasNone(t *testing.T) {
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
	variant := build(true)
	if err := sys.BindLanes(variant); err != nil {
		t.Fatalf("lane with a charge device where the host has none: %v", err)
	}
	lane := sys.NewWorkspace()
	lane.SetDevices(variant.devices)
	x := testIterate(sys.N)
	p := LoadParams{Alpha0: 1e9, SrcScale: 1}
	lane.BookCharges(x, p)
	sameBits(t, "variant lane", lane.Q, fullQ(lane, x, p))
	if lane.Q[0] == 0 {
		t.Fatal("the lane booked no charge")
	}
}
