package newton

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/device"
)

// randomLinear builds a seeded random linear circuit: an RC or RLC tree or
// mesh of a few to a few dozen nodes, every node with a capacitor to ground,
// driven by one voltage source (pulse, PWL or sine) through a resistor and
// loaded by a few current sinks with waveforms of their own. Element values
// span two decades each, the spread post-layout parasitics have.
func randomLinear(rng *rand.Rand) *circuit.Circuit {
	c := circuit.New("random-linear")
	decade := func(lo float64) float64 { return lo * math.Pow(10, 2*rng.Float64()) }
	wave := func(amp float64) device.Waveform {
		switch rng.Intn(3) {
		case 0:
			return device.Pulse{V2: amp, Delay: decade(1e-10), Rise: decade(1e-10), Fall: decade(1e-10), Width: decade(1e-9), Period: 2e-7}
		case 1:
			return device.PWL{Times: []float64{0, decade(1e-10), 3e-8, 5e-8}, Values: []float64{0, amp, amp / 3, amp}}
		default:
			return device.Sin{Offset: amp / 2, Amplitude: amp / 2, Freq: decade(1e7)}
		}
	}
	var nodes []int
	parts := 0
	// link joins a and b by a resistor, or by a resistor and an inductor in
	// series through a node of their own.
	link := func(a, b int, withL bool) {
		parts++
		if !withL {
			c.Add(device.NewResistor(fmt.Sprintf("R%d", parts), a, b, decade(0.5)))
			return
		}
		mid := c.Node(fmt.Sprintf("m%d", parts))
		c.Add(device.NewResistor(fmt.Sprintf("R%d", parts), a, mid, decade(0.5)))
		c.Add(device.NewInductor(fmt.Sprintf("L%d", parts), mid, b, decade(1e-10)))
		c.Add(device.NewCapacitor(fmt.Sprintf("Cm%d", parts), mid, circuit.Ground, decade(1e-15)))
	}
	rlc := rng.Intn(2) == 0
	withL := func() bool { return rlc && rng.Intn(3) == 0 }
	if rng.Intn(2) == 0 { // tree: every node hangs off an earlier one
		n := 4 + rng.Intn(36)
		for i := 0; i < n; i++ {
			nodes = append(nodes, c.Node(fmt.Sprintf("n%d", i)))
			if i > 0 {
				link(nodes[rng.Intn(i)], nodes[i], withL())
			}
		}
	} else { // mesh: neighbours to the right and below
		side := 2 + rng.Intn(5)
		for i := 0; i < side*side; i++ {
			nodes = append(nodes, c.Node(fmt.Sprintf("n%d", i)))
		}
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				if j+1 < side {
					link(nodes[i*side+j], nodes[i*side+j+1], withL())
				}
				if i+1 < side {
					link(nodes[i*side+j], nodes[(i+1)*side+j], withL())
				}
			}
		}
	}
	for i, nd := range nodes {
		c.Add(device.NewCapacitor(fmt.Sprintf("C%d", i), nd, circuit.Ground, decade(1e-14)))
	}
	in := c.Node("in")
	c.Add(device.NewVSource("Vin", in, circuit.Ground, wave(1+2*rng.Float64())))
	c.Add(device.NewResistor("Rin", in, nodes[0], decade(5)))
	for k := 0; k < 1+rng.Intn(3); k++ {
		c.Add(device.NewISource(fmt.Sprintf("I%d", k), nodes[rng.Intn(len(nodes))], circuit.Ground, wave(1e-3+5e-3*rng.Float64())))
	}
	return c
}

// bePoint is one backward-Euler time point on a workspace: the assembly
// parameters, the history vector qhist = −Q(x0)/h and the starting iterate.
type bePoint struct {
	ws       *circuit.Workspace
	p        circuit.LoadParams
	qhist    []float64
	x, r, dx []float64
}

// newBEPoint sets up the step from a random state x0 at t to t+h, starting
// the iteration from x0 (an order-zero prediction). The state is kept within
// ten millivolts and milliamps: a random state is not a consistent one, and
// a larger one would have inductor currents throw nodes past the 5 V damping
// clamp of the confirming Newton iteration.
func newBEPoint(t *testing.T, c *circuit.Circuit, rng *rand.Rand, tNow, h float64) *bePoint {
	t.Helper()
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Linear() {
		t.Fatal("generator produced a circuit Build does not find linear")
	}
	ws := sys.NewWorkspace()
	n := sys.N
	b := &bePoint{
		ws: ws, p: circuit.LoadParams{Time: tNow + h, Alpha0: 1 / h, Gmin: 1e-12, SrcScale: 1},
		qhist: make([]float64, n), x: make([]float64, n), r: make([]float64, n), dx: make([]float64, n),
	}
	for i := range b.x {
		b.x[i] = 0.01 * rng.Float64()
	}
	ws.Load(b.x, circuit.LoadParams{Time: tNow, Gmin: 1e-12, SrcScale: 1})
	for i, q := range ws.Q {
		b.qhist[i] = -q / h
	}
	return b
}

// TestLinearStepIsTheSolution: on seeded random linear circuits the direct
// solve is one iteration, and a confirming Newton iteration from its point
// moves no unknown by more than round-off at the scale of the solution times
// the conditioning of these matrices (128 units in the last place is the
// worst of the sixty; the bar leaves a factor of eight) — four orders of
// magnitude inside the update tolerance it would be tested against.
func TestLinearStepIsTheSolution(t *testing.T) {
	opts := DefaultOptions()
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomLinear(rng)
		h := 1e-12 * math.Pow(10, 3*rng.Float64())
		b := newBEPoint(t, c, rng, 1e-9*rng.Float64(), h)
		var direct Iter
		if err := direct.Direct(b.ws, b.x, b.p, b.qhist); err != nil || direct.N != 1 {
			t.Fatalf("seed %d: %d iterations, %v; want one", seed, direct.N, err)
		}
		one := append([]float64(nil), b.x...)
		scale := 0.0
		for _, v := range one {
			scale = math.Max(scale, math.Abs(v))
		}
		// A Newton iteration from the point: a load and a step.
		var it Iter
		Load(b.ws, b.x, b.p)
		if _, err := it.step(b.ws, b.x, b.p, b.qhist, opts, b.r, b.dx); err != nil {
			t.Fatal(err)
		}
		for i := range one {
			d := math.Abs(b.x[i] - one[i])
			if ulps := d / (scale * 0x1p-52); ulps > 1024 {
				t.Fatalf("seed %d (N=%d, h=%.3g): the confirming iteration moved x[%d] by %.0f ulp-scaled units (%g → %g)",
					seed, len(one), h, i, ulps, one[i], b.x[i])
			}
			if d > 1e-4*opts.Tol.Weight(one[i]) {
				t.Fatalf("seed %d: x[%d] moved by %g, over 1e-4 of its update tolerance", seed, i, d)
			}
		}
	}
}

// TestLinearStepUpdateAndNorm: one Newton step on the 12 V divider under
// 5 V damping is clamped: it takes applyUpdate's damped update, bit for bit,
// and the update norm that step computes — 5 V against a tolerance of
// millivolts — keeps it from converging.
func TestLinearStepUpdateAndNorm(t *testing.T) {
	ws := build(t, func(c *circuit.Circuit) {
		in := c.Node("in")
		mid := c.Node("mid")
		c.Add(device.NewVSource("V1", in, circuit.Ground, device.DC(12)))
		c.Add(device.NewResistor("R1", in, mid, 1e3))
		c.Add(device.NewResistor("R2", mid, circuit.Ground, 1e3))
	})
	n := ws.Sys.N
	opts := DefaultOptions()
	x, r, dx := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 0.1 * float64(i+1)
	}
	x0 := append([]float64(nil), x...)
	p := circuit.LoadParams{SrcScale: 1}
	var it Iter
	Load(ws, x, p)
	done, err := it.step(ws, x, p, nil, opts, r, dx)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("a clamped step converged")
	}
	want := append([]float64(nil), x0...)
	if norm := applyUpdate(want, dx, opts); norm <= 1 {
		t.Fatalf("a 12 V update has norm %g", norm)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x[%d] = %v, applyUpdate makes %v", i, x[i], want[i])
		}
	}
}
