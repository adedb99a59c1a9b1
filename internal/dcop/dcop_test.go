package dcop

import (
	"math"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/device"
)

func solve(t *testing.T, add func(*circuit.Circuit)) ([]float64, Stats, *circuit.Circuit) {
	t.Helper()
	c := circuit.New("op")
	add(c)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	st, err := Solve(ws, x, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return x, st, c
}

func TestDirectLinearOP(t *testing.T) {
	x, st, c := solve(t, func(c *circuit.Circuit) {
		in := c.Node("in")
		mid := c.Node("mid")
		c.Add(device.NewVSource("V1", in, circuit.Ground, device.DC(9)))
		c.Add(device.NewResistor("R1", in, mid, 2e3))
		c.Add(device.NewResistor("R2", mid, circuit.Ground, 1e3))
	})
	if st.Strategy != "direct" {
		t.Fatalf("strategy = %s", st.Strategy)
	}
	mid, _ := c.FindNode("mid")
	if math.Abs(x[mid]-3) > 1e-9 {
		t.Fatalf("v(mid) = %g, want 3", x[mid])
	}
}

func TestDiodeBiasOP(t *testing.T) {
	x, _, c := solve(t, func(c *circuit.Circuit) {
		in := c.Node("in")
		a := c.Node("a")
		c.Add(device.NewVSource("V1", in, circuit.Ground, device.DC(3)))
		c.Add(device.NewResistor("R1", in, a, 470))
		c.Add(device.NewDiode("D1", a, circuit.Ground, device.DefaultDiodeModel(), 1))
	})
	a, _ := c.FindNode("a")
	if x[a] < 0.6 || x[a] > 0.8 {
		t.Fatalf("diode OP voltage = %g", x[a])
	}
}

func TestCMOSInverterOP(t *testing.T) {
	// Inverter with input at mid-supply: output near the switching point;
	// with input low: output at VDD.
	run := func(vin float64) float64 {
		x, _, c := solve(t, func(c *circuit.Circuit) {
			vdd := c.Node("vdd")
			in := c.Node("in")
			out := c.Node("out")
			c.Add(device.NewVSource("VDD", vdd, circuit.Ground, device.DC(1.8)))
			c.Add(device.NewVSource("VIN", in, circuit.Ground, device.DC(vin)))
			pm := device.DefaultMOSModel(device.PMOS)
			pm.KP = 45e-6
			c.Add(device.NewMOSFET("MP", out, in, vdd, vdd, pm, 2e-6, 0.5e-6))
			c.Add(device.NewMOSFET("MN", out, in, circuit.Ground, circuit.Ground,
				device.DefaultMOSModel(device.NMOS), 1e-6, 0.5e-6))
			c.Add(device.NewResistor("RL", out, circuit.Ground, 1e9))
		})
		out, _ := c.FindNode("out")
		return x[out]
	}
	if v := run(0); v < 1.7 {
		t.Fatalf("inverter(0) = %g, want ≈1.8", v)
	}
	if v := run(1.8); v > 0.1 {
		t.Fatalf("inverter(1.8) = %g, want ≈0", v)
	}
}

func TestRingOscillatorOPNeedsContinuation(t *testing.T) {
	// The ring oscillator's DC operating point is the metastable mid-rail
	// point; plain Newton from zero may or may not reach it, but the
	// continuation ladder must.
	c := circuit.New("ring")
	vdd := c.Node("vdd")
	c.Add(device.NewVSource("VDD", vdd, circuit.Ground, device.DC(1.8)))
	nodes := make([]int, 5)
	for i := range nodes {
		nodes[i] = c.Node(string(rune('a' + i)))
	}
	pm := device.DefaultMOSModel(device.PMOS)
	pm.KP = 45e-6
	nm := device.DefaultMOSModel(device.NMOS)
	for i := 0; i < 5; i++ {
		in := nodes[i]
		out := nodes[(i+1)%5]
		c.Add(device.NewMOSFET("MP"+string(rune('0'+i)), out, in, vdd, vdd, pm, 2e-6, 0.5e-6))
		c.Add(device.NewMOSFET("MN"+string(rune('0'+i)), out, in, circuit.Ground, circuit.Ground, nm, 1e-6, 0.5e-6))
	}
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	if _, err := Solve(ws, x, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	// All stages sit at the same metastable voltage strictly inside the rails.
	for i := 1; i < 5; i++ {
		if math.Abs(x[nodes[i]]-x[nodes[0]]) > 1e-3 {
			t.Fatalf("stages differ: %g vs %g", x[nodes[i]], x[nodes[0]])
		}
	}
	if x[nodes[0]] < 0.2 || x[nodes[0]] > 1.6 {
		t.Fatalf("metastable point = %g, want inside the rails", x[nodes[0]])
	}
}

// TestLongEKVChainOperatingPoint: under the minimum-fill order the supply
// node of a long EKV inverter chain is eliminated last, and the first source
// step's mid-rail iterate carries the chain's gain product into its column
// until the last pivot leaves float64 ("singular matrix"). The ladder rerun
// on the SourcesFirst order finds the point: input low, so the first stage is
// high and the last of an even chain low.
func TestLongEKVChainOperatingPoint(t *testing.T) {
	for _, n := range []int{430, 440, 480, 800} {
		c := circuits.InverterChainEKV(n, 1.2)
		sys, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, sys.N)
		if _, err := Solve(sys.NewWorkspace(), x, DefaultOptions()); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		c1, _ := c.FindNode("c1")
		out, _ := c.FindNode("out")
		if x[c1] < 1.1 || x[out] > 0.1 {
			t.Fatalf("n=%d: v(c1) = %g, v(out) = %g; want ≈1.2 and ≈0", n, x[c1], x[out])
		}
	}
}

func TestHopelessCircuitFails(t *testing.T) {
	// Two ideal voltage sources fighting across one node cannot have an OP.
	c := circuit.New("bad")
	a := c.Node("a")
	c.Add(device.NewVSource("V1", a, circuit.Ground, device.DC(1)))
	c.Add(device.NewVSource("V2", a, circuit.Ground, device.DC(2)))
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	if _, err := Solve(ws, x, DefaultOptions()); err == nil {
		t.Fatal("conflicting sources must fail")
	}
}

func TestDefaultOptionFilling(t *testing.T) {
	// The zero Options is the unseeded search DefaultOptions returns.
	c := circuit.New("z")
	a := c.Node("a")
	c.Add(device.NewVSource("V1", a, circuit.Ground, device.DC(1)))
	c.Add(device.NewResistor("R1", a, circuit.Ground, 50))
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	if _, err := Solve(ws, x, Options{}); err != nil {
		t.Fatal(err)
	}
}
