package dcop

import (
	"math"
	"strings"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/device"
)

func TestSweepDiodeIV(t *testing.T) {
	// Classic diode I-V curve: sweep the source, read the branch current.
	c := circuit.New("div")
	in := c.Node("in")
	a := c.Node("a")
	src := device.NewVSource("V1", in, circuit.Ground, device.DC(0))
	c.Add(src)
	c.Add(device.NewResistor("R1", in, a, 100))
	c.Add(device.NewDiode("D1", a, circuit.Ground, device.DefaultDiodeModel(), 1))
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	w, err := Sweep(ws, src.SetDC, 0, 1.0, 0.05,
		[]string{"a", "iv1"}, []int{1, src.BranchIndex()}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 21 {
		t.Fatalf("points = %d", w.Len())
	}
	// At 0 V everything is 0; at 1 V the diode conducts a few mA.
	i0, _ := w.At("iv1", 0)
	i1, _ := w.At("iv1", 1)
	if math.Abs(i0) > 1e-9 {
		t.Fatalf("i(0) = %g", i0)
	}
	if -i1 < 1e-3 || -i1 > 10e-3 { // source current is negative (P→N)
		t.Fatalf("i(1) = %g", i1)
	}
	// The diode voltage saturates near 0.6–0.8 V while the drive rises.
	va, _ := w.At("a", 1)
	if va < 0.5 || va > 0.85 {
		t.Fatalf("v(a) at 1 V = %g", va)
	}
}

func TestSweepDescendingAndErrors(t *testing.T) {
	c := circuit.New("r")
	in := c.Node("in")
	src := device.NewVSource("V1", in, circuit.Ground, device.DC(0))
	c.Add(src)
	c.Add(device.NewResistor("R1", in, circuit.Ground, 1e3))
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	w, err := Sweep(ws, src.SetDC, 2, -2, -1, []string{"in"}, []int{0}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Stored ascending regardless of sweep direction.
	if w.Times[0] != -2 || w.Times[len(w.Times)-1] != 2 {
		t.Fatalf("axis = %v", w.Times)
	}
	v, _ := w.At("in", -2)
	if v != -2 {
		t.Fatalf("v(-2) = %g", v)
	}
	if _, err := Sweep(ws, src.SetDC, 0, 1, -0.1, nil, nil, DefaultOptions()); err == nil {
		t.Fatal("wrong-sign step must fail")
	}
	if _, err := Sweep(ws, src.SetDC, 0, 1, 0, nil, nil, DefaultOptions()); err == nil {
		t.Fatal("zero step must fail")
	}
}

func TestSweepMOSTransferCurve(t *testing.T) {
	// NMOS inverter VTC via DC sweep: output falls monotonically with vin.
	c := circuit.New("vtc")
	vdd := c.Node("vdd")
	in := c.Node("in")
	out := c.Node("out")
	c.Add(device.NewVSource("VDD", vdd, circuit.Ground, device.DC(1.8)))
	vin := device.NewVSource("VIN", in, circuit.Ground, device.DC(0))
	c.Add(vin)
	c.Add(device.NewResistor("RL", vdd, out, 20e3))
	c.Add(device.NewMOSFET("M1", out, in, circuit.Ground, circuit.Ground,
		device.DefaultMOSModel(device.NMOS), 4e-6, 1e-6))
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	ws := sys.NewWorkspace()
	outIdx, _ := c.FindNode("out")
	w, err := Sweep(ws, vin.SetDC, 0, 1.8, 0.1, []string{"out"}, []int{outIdx}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vHigh, _ := w.At("out", 0)
	vLow, _ := w.At("out", 1.8)
	if vHigh < 1.75 {
		t.Fatalf("VTC high = %g", vHigh)
	}
	if vLow > 0.3 {
		t.Fatalf("VTC low = %g", vLow)
	}
	sig, _ := w.Signal("out")
	for i := 1; i < len(sig); i++ {
		if sig[i] > sig[i-1]+1e-9 {
			t.Fatalf("VTC not monotone at %d", i)
		}
	}
}

// Adjoint sensitivities must match brute-force finite differences of the
// operating point.
func TestSensitivityAgainstFiniteDifference(t *testing.T) {
	build := func(r1, r2, v float64) (*circuit.Workspace, int) {
		c := circuit.New("sens")
		in := c.Node("in")
		mid := c.Node("mid")
		c.Add(device.NewVSource("V1", in, circuit.Ground, device.DC(v)))
		c.Add(device.NewResistor("R1", in, mid, r1))
		c.Add(device.NewResistor("R2", mid, circuit.Ground, r2))
		c.Add(device.NewISource("I1", circuit.Ground, mid, device.DC(1e-3)))
		sys, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		mi, _ := c.FindNode("mid")
		return sys.NewWorkspace(), mi
	}
	opAt := func(r1, r2, v float64) float64 {
		ws, mi := build(r1, r2, v)
		x := make([]float64, ws.Sys.N)
		if _, err := Solve(ws, x, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		return x[mi]
	}
	ws, mi := build(1e3, 2e3, 6)
	x := make([]float64, ws.Sys.N)
	sens, err := Sens(ws, x, mi, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) != 4 { // R1.r, R2.r, V1.dc, I1.dc
		t.Fatalf("sensitivity count = %d: %+v", len(sens), sens)
	}
	get := func(dev, param string) float64 {
		for _, s := range sens {
			if s.Device == dev && s.Param == param {
				return s.DVDp
			}
		}
		t.Fatalf("missing sensitivity %s.%s", dev, param)
		return 0
	}
	base := opAt(1e3, 2e3, 6)
	fdR1 := (opAt(1e3*1.0001, 2e3, 6) - base) / (1e3 * 0.0001)
	fdR2 := (opAt(1e3, 2e3*1.0001, 6) - base) / (2e3 * 0.0001)
	fdV := (opAt(1e3, 2e3, 6.0001) - base) / 0.0001
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-3*(math.Abs(want)+1e-9) {
			t.Fatalf("%s sensitivity = %g, want %g", name, got, want)
		}
	}
	check("R1", get("R1", "r"), fdR1)
	check("R2", get("R2", "r"), fdR2)
	check("V1", get("V1", "dc"), fdV)
	// Normalized values are DVDp·p.
	for _, s := range sens {
		if s.Device == "R1" && math.Abs(s.Normalized-s.DVDp*1e3) > 1e-12 {
			t.Fatalf("normalization: %+v", s)
		}
	}
	// Out-of-range output index errors.
	if _, err := Sens(ws, x, 99, DefaultOptions()); err == nil {
		t.Fatal("bad output index must fail")
	}
}

// TestSweepGridBounds: bounds that are not finite, and grids past
// MaxGridPoints values, are refused with an error naming the analysis before
// any buffer is sized from them.
func TestSweepGridBounds(t *testing.T) {
	c := circuit.New("div")
	in := c.Node("in")
	src := device.NewVSource("V1", in, circuit.Ground, device.DC(0))
	c.Add(src)
	c.Add(device.NewResistor("R1", in, circuit.Ground, 1e3))
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, row := range []struct {
		name              string
		start, stop, step float64
	}{
		{"NaN start", nan, 1, 0.1},
		{"NaN stop", 0, nan, 0.1},
		{"NaN step", 0, 1, nan},
		{"+Inf stop", 0, inf, 0.1},
		{"-Inf start", -inf, 1, 0.1},
		{"1e12 points", 0, 1, 1e-12},
		{"1e300 points", 0, 1, 1e-300},
		{"one past the bound", 0, MaxGridPoints, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			w, err := Sweep(sys.NewWorkspace(), src.SetDC, row.start, row.stop, row.step,
				[]string{"in"}, []int{in}, DefaultOptions())
			if err == nil {
				t.Fatalf("accepted: %d points", w.Len())
			}
			if !strings.HasPrefix(err.Error(), "dcop: ") {
				t.Fatalf("error %q does not name the analysis", err)
			}
		})
	}
}
