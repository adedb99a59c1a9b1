package ac

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/device"
)

func rcSystem(t *testing.T, r, c float64) *circuit.System {
	t.Helper()
	ckt := circuit.New("rc")
	in := ckt.Node("in")
	out := ckt.Node("out")
	src := device.NewVSource("V1", in, circuit.Ground, device.DC(0))
	src.ACMag = 1
	ckt.Add(src)
	ckt.Add(device.NewResistor("R1", in, out, r))
	ckt.Add(device.NewCapacitor("C1", out, circuit.Ground, c))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// The canonical AC check: a first-order RC low-pass must match
// H(jω) = 1/(1 + jωRC) in magnitude and phase across the sweep.
func TestRCLowPassTransferFunction(t *testing.T) {
	r, c := 1e3, 1e-9 // fc ≈ 159 kHz
	sys := rcSystem(t, r, c)
	res, err := Run(sys, Options{Sweep: Dec, Points: 10, FStart: 1e3, FStop: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	sig, err := res.Signal("out")
	if err != nil {
		t.Fatal(err)
	}
	for k, f := range res.Freqs {
		want := 1 / complex(1, 2*math.Pi*f*r*c)
		if cmplx.Abs(sig[k]-want) > 1e-9*cmplx.Abs(want) {
			t.Fatalf("f=%g: H=%v, want %v", f, sig[k], want)
		}
	}
	// −3 dB point sits at fc.
	fc := 1 / (2 * math.Pi * r * c)
	resAt, err := Run(sys, Options{Sweep: Lin, Points: 1, FStart: fc, FStop: fc})
	if err != nil {
		t.Fatal(err)
	}
	db, _ := resAt.MagDB("out")
	if math.Abs(db[0]-(-3.0103)) > 0.01 {
		t.Fatalf("at fc: %g dB, want −3.01", db[0])
	}
	ph, _ := resAt.PhaseDeg("out")
	if math.Abs(ph[0]-(-45)) > 0.01 {
		t.Fatalf("at fc: %g°, want −45", ph[0])
	}
}

// RLC series resonance: the capacitor voltage peaks at f0 = 1/(2π√(LC))
// with Q = (1/R)·√(L/C).
func TestRLCResonance(t *testing.T) {
	ckt := circuit.New("rlc")
	in := ckt.Node("in")
	mid := ckt.Node("mid")
	out := ckt.Node("out")
	src := device.NewVSource("V1", in, circuit.Ground, device.DC(0))
	src.ACMag = 1
	ckt.Add(src)
	ckt.Add(device.NewResistor("R1", in, mid, 10))
	ckt.Add(device.NewInductor("L1", mid, out, 1e-3))
	ckt.Add(device.NewCapacitor("C1", out, circuit.Ground, 1e-9))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	f0 := 1 / (2 * math.Pi * math.Sqrt(1e-3*1e-9))
	res, err := Run(sys, Options{Sweep: Lin, Points: 1, FStart: f0, FStop: f0})
	if err != nil {
		t.Fatal(err)
	}
	sig, _ := res.Signal("out")
	q := math.Sqrt(1e-3/1e-9) / 10
	if math.Abs(cmplx.Abs(sig[0])-q) > 0.01*q {
		t.Fatalf("|H(f0)| = %g, want Q = %g", cmplx.Abs(sig[0]), q)
	}
}

// Small-signal gain of the common-source amplifier must equal −gm·Rd with
// gm taken from the Level-1 model at the operating point.
func TestCSAmplifierGainAC(t *testing.T) {
	ckt := circuit.New("cs")
	vdd := ckt.Node("vdd")
	in := ckt.Node("in")
	out := ckt.Node("out")
	ckt.Add(device.NewVSource("VDD", vdd, circuit.Ground, device.DC(3)))
	src := device.NewVSource("VIN", in, circuit.Ground, device.DC(0.9))
	src.ACMag = 1
	ckt.Add(src)
	model := device.DefaultMOSModel(device.NMOS)
	model.LAMBDA = 0
	ckt.Add(device.NewMOSFET("M1", out, in, circuit.Ground, circuit.Ground, model, 20e-6, 1e-6))
	ckt.Add(device.NewResistor("RD", vdd, out, 10e3))
	sys, err := ckt.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, Options{Sweep: Lin, Points: 1, FStart: 1e3, FStop: 1e3})
	if err != nil {
		t.Fatal(err)
	}
	sig, _ := res.Signal("out")
	// gm = KP·W/L·(vgs − vth) in saturation (vgst = 0.2 keeps the OP there).
	gm := 110e-6 * 20 * (0.9 - 0.7)
	wantGain := gm * 10e3
	if math.Abs(cmplx.Abs(sig[0])-wantGain) > 0.02*wantGain {
		t.Fatalf("|gain| = %g, want %g", cmplx.Abs(sig[0]), wantGain)
	}
	ph, _ := res.PhaseDeg("out")
	if math.Abs(math.Abs(ph[0])-180) > 1 {
		t.Fatalf("phase = %g°, want ±180 (inverting)", ph[0])
	}
}

func TestFrequencyGrids(t *testing.T) {
	fs, err := (Options{Sweep: Dec, Points: 2, FStart: 1, FStop: 100}).Frequencies()
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 5 || math.Abs(fs[1]-math.Sqrt(10)) > 1e-9 || math.Abs(fs[4]-100) > 1e-9 {
		t.Fatalf("dec grid = %v", fs)
	}
	fs, err = (Options{Sweep: Oct, Points: 1, FStart: 1, FStop: 8}).Frequencies()
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 4 || math.Abs(fs[3]-8) > 1e-8 {
		t.Fatalf("oct grid = %v", fs)
	}
	fs, err = (Options{Sweep: Lin, Points: 5, FStart: 10, FStop: 50}).Frequencies()
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 5 || fs[0] != 10 || fs[4] != 50 {
		t.Fatalf("lin grid = %v", fs)
	}
	if _, err := (Options{Sweep: Lin, Points: 0, FStart: 1, FStop: 2}).Frequencies(); err == nil {
		t.Fatal("zero points must fail")
	}
	if _, err := (Options{Sweep: Dec, Points: 5, FStart: 0, FStop: 2}).Frequencies(); err == nil {
		t.Fatal("zero start must fail")
	}
	if _, err := (Options{Sweep: Dec, Points: 5, FStart: 10, FStop: 2}).Frequencies(); err == nil {
		t.Fatal("inverted range must fail")
	}
}

func TestResultAccessors(t *testing.T) {
	sys := rcSystem(t, 1e3, 1e-9)
	res, err := Run(sys, Options{Sweep: Dec, Points: 2, FStart: 1e3, FStop: 1e4})
	if err != nil {
		t.Fatal(err)
	}
	if res.SignalIndex("out") < 0 || res.SignalIndex("zzz") != -1 {
		t.Fatal("SignalIndex")
	}
	if _, err := res.Signal("zzz"); err == nil {
		t.Fatal("unknown signal must error")
	}
	if _, err := res.MagDB("zzz"); err == nil {
		t.Fatal("MagDB unknown signal")
	}
	if _, err := res.PhaseDeg("zzz"); err == nil {
		t.Fatal("PhaseDeg unknown signal")
	}
	if len(res.OP) != sys.N {
		t.Fatal("missing OP")
	}
}

func TestExplicitRecordList(t *testing.T) {
	sys := rcSystem(t, 1e3, 1e-9)
	res, err := Run(sys, Options{Sweep: Lin, Points: 2, FStart: 1e3, FStop: 2e3, Record: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 2 || res.Names[0] != "out" || res.Names[1] != "branch0" {
		t.Fatalf("record names = %v", res.Names)
	}
}

// The EKV model's split G/C assembly must give the textbook gm·Rd gain in
// strong inversion (asymptotically gm = sqrt(2·n·β·Id)/n... checked
// numerically against a finite-difference gm at the operating point).
func TestEKVAmplifierGainAC(t *testing.T) {
	build := func(vg float64) *circuit.System {
		ckt := circuit.New("ekvamp")
		vdd := ckt.Node("vdd")
		in := ckt.Node("in")
		out := ckt.Node("out")
		ckt.Add(device.NewVSource("VDD", vdd, circuit.Ground, device.DC(3)))
		src := device.NewVSource("VIN", in, circuit.Ground, device.DC(vg))
		src.ACMag = 1
		ckt.Add(src)
		model := device.DefaultEKVModel(device.NMOS)
		model.LAMBDA = 0
		ckt.Add(device.NewMOSFETEKV("M1", out, in, circuit.Ground, circuit.Ground, model, 20e-6, 1e-6))
		ckt.Add(device.NewResistor("RD", vdd, out, 10e3))
		sys, err := ckt.Build()
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	vg := 0.75
	res, err := Run(build(vg), Options{Sweep: Lin, Points: 1, FStart: 1e3, FStop: 1e3})
	if err != nil {
		t.Fatal(err)
	}
	sig, _ := res.Signal("out")
	gain := cmplx.Abs(sig[0])

	// Finite-difference gm from two operating points.
	opOut := func(v float64) float64 {
		r, err := Run(build(v), Options{Sweep: Lin, Points: 1, FStart: 1e3, FStop: 1e3})
		if err != nil {
			t.Fatal(err)
		}
		return r.OP[res.SignalIndex("out")]
	}
	dv := 1e-4
	fdGain := -(opOut(vg+dv) - opOut(vg-dv)) / (2 * dv)
	if math.Abs(gain-fdGain) > 0.02*fdGain {
		t.Fatalf("AC gain %g vs finite-difference %g", gain, fdGain)
	}
}

// TestFrequencyGridBounds: a range that is not finite and positive, or a
// grid past dcop.MaxGridPoints frequencies, is refused with an error naming
// the analysis — not a panic, and not a grid that runs to +Inf.
func TestFrequencyGridBounds(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, row := range []struct {
		name string
		opts Options
	}{
		{"NaN start", Options{Sweep: Dec, Points: 10, FStart: nan, FStop: 1e6}},
		{"NaN stop", Options{Sweep: Dec, Points: 10, FStart: 1, FStop: nan}},
		{"+Inf stop", Options{Sweep: Dec, Points: 10, FStart: 1, FStop: inf}},
		{"+Inf start and stop", Options{Sweep: Oct, Points: 10, FStart: inf, FStop: inf}},
		{"+Inf stop, linear", Options{Sweep: Lin, Points: 10, FStart: 1, FStop: inf}},
		{"linear grid past the bound", Options{Sweep: Lin, Points: 1<<20 + 1, FStart: 1, FStop: 2}},
		{"decade grid past the bound", Options{Sweep: Dec, Points: 1 << 18, FStart: 1, FStop: 1e5}},
		{"decade grid over 600 decades", Options{Sweep: Dec, Points: 2000, FStart: 1e-300, FStop: 1e300}},
	} {
		t.Run(row.name, func(t *testing.T) {
			fs, err := row.opts.Frequencies()
			if err == nil {
				t.Fatalf("accepted: %d frequencies, last %g", len(fs), fs[len(fs)-1])
			}
			if !strings.HasPrefix(err.Error(), "ac: ") {
				t.Fatalf("error %q does not name the analysis", err)
			}
		})
	}
}
