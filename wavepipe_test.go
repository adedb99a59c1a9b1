package wavepipe

import (
	"math"
	"strings"
	"testing"
)

func lowpass(t *testing.T) *System {
	t.Helper()
	c := NewCircuit("lowpass")
	in := c.Node("in")
	out := c.Node("out")
	AddVSource(c, "V1", in, Ground, Sin{Amplitude: 1, Freq: 1e3})
	AddResistor(c, "R1", in, out, 1e3)
	AddCapacitor(c, "C1", out, Ground, 1e-7)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestAllSchemesThroughFacade(t *testing.T) {
	ref, err := RunTransient(lowpass(t), TranOptions{TStop: 3e-3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{Backward, Forward, Combined} {
		res, err := RunTransient(lowpass(t), TranOptions{TStop: 3e-3, Scheme: s})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		dev, err := Compare(res.W, ref.W, "out")
		if err != nil {
			t.Fatal(err)
		}
		if dev.RelMax() > 0.02 {
			t.Fatalf("%v deviates by %g", s, dev.RelMax())
		}
	}
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		Serial: "serial", Backward: "backward", Forward: "forward",
		Combined: "combined", Scheme(99): "unknown",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
	// The fine-grained baseline scheme is retired (PR 14): its name no longer
	// parses, so a CLI flag or wire document still carrying it fails loudly.
	if _, err := ParseScheme("finegrain"); err == nil {
		t.Fatal(`ParseScheme("finegrain") accepted a retired scheme`)
	}
}

func TestTranOptionsValidation(t *testing.T) {
	sys := lowpass(t)
	if _, err := RunTransient(sys, TranOptions{}); err == nil {
		t.Fatal("TStop=0 must fail")
	}
	if _, err := RunTransient(sys, TranOptions{TStop: 1e-3, Scheme: Scheme(42)}); err == nil {
		t.Fatal("bad scheme must fail")
	}
	if _, err := RunTransient(sys, TranOptions{TStop: 1e-3, IC: map[string]float64{"zz": 1}}); err == nil {
		t.Fatal("IC for unknown node must fail")
	}
	if _, err := RunTransient(sys, TranOptions{TStop: 1e-3, Record: []string{"zz"}}); err == nil {
		t.Fatal("recording unknown node must fail")
	}
}

func TestRecordAndToleranceOptions(t *testing.T) {
	res, err := RunTransient(lowpass(t), TranOptions{
		TStop:  1e-3,
		Record: []string{"out"},
		RelTol: 1e-4,
		AbsTol: 1e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.W.Names) != 1 || res.W.Names[0] != "out" {
		t.Fatalf("record list = %v", res.W.Names)
	}
	// Tighter tolerance → more points than default.
	def, err := RunTransient(lowpass(t), TranOptions{TStop: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Points <= def.Stats.Points {
		t.Fatalf("tight tolerance used %d points, default %d", res.Stats.Points, def.Stats.Points)
	}
}

func TestICAndUICThroughFacade(t *testing.T) {
	c := NewCircuit("discharge")
	out := c.Node("out")
	AddResistor(c, "R1", out, Ground, 1e3)
	AddCapacitor(c, "C1", out, Ground, 1e-6)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTransient(sys, TranOptions{
		TStop: 2e-3, UIC: true, IC: map[string]float64{"out": 3, "0": 99},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.W.At("out", 1e-3)
	want := 3 * math.Exp(-1)
	if math.Abs(v-want) > 0.01 {
		t.Fatalf("discharge = %g, want %g", v, want)
	}
}

func TestRunDeckEndToEnd(t *testing.T) {
	deck := `facade deck test
V1 in 0 SIN(0 1 10k)
R1 in out 1k
C1 out 0 10n
.options reltol=2e-3
.tran 1u 200u
.end
`
	d, err := ParseDeck(deck)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDeck(d, TranOptions{Scheme: Combined})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Points < 20 {
		t.Fatalf("points = %d", res.Stats.Points)
	}
	// Low-pass attenuation at 10 kHz with fc ≈ 15.9 kHz: |H| ≈ 0.85.
	sig, err := res.W.Signal("out")
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for _, v := range sig[len(sig)/2:] {
		if v > peak {
			peak = v
		}
	}
	if peak < 0.7 || peak > 0.95 {
		t.Fatalf("filter peak = %g, want ≈0.85", peak)
	}
	// Round-trip the deck through the writer.
	var sb strings.Builder
	if err := WriteDeck(&sb, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), ".tran") {
		t.Fatal("written deck lost .tran")
	}
}

func TestRunDeckErrors(t *testing.T) {
	d, err := ParseDeck("no tran\nR1 a 0 1k\nV1 a 0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunDeck(d, TranOptions{}); err == nil {
		t.Fatal("deck without .TRAN and without TStop must fail")
	}
	if _, err := RunDeck(d, TranOptions{TStop: 1e-6}); err != nil {
		t.Fatalf("explicit TStop should recover: %v", err)
	}
}

func TestDefaultModels(t *testing.T) {
	if DefaultDiodeModel().IS != 1e-14 {
		t.Fatal("diode default")
	}
	if DefaultMOSModel(PMOS).Type != PMOS {
		t.Fatal("mos default")
	}
}

func TestControlledSourcesThroughFacade(t *testing.T) {
	c := NewCircuit("ctrl")
	in := c.Node("in")
	o1 := c.Node("o1")
	o2 := c.Node("o2")
	AddVSource(c, "V1", in, Ground, DC(1))
	AddVCVS(c, "E1", o1, Ground, in, Ground, 0.5)
	AddResistor(c, "R1", o1, Ground, 1e3)
	AddVCCS(c, "G1", Ground, o2, in, Ground, 1e-3)
	AddResistor(c, "R2", o2, Ground, 1e3)
	AddInductor(c, "L1", o2, Ground, 1e-3)
	AddISource(c, "I1", Ground, o2, DC(0))
	AddDiode(c, "D1", o1, Ground, DefaultDiodeModel(), 1)
	AddMOSFET(c, "M1", o1, in, Ground, Ground, DefaultMOSModel(NMOS), 1e-6, 1e-6)
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTransient(sys, TranOptions{TStop: 1e-3, Method: Trapezoidal}); err != nil {
		t.Fatal(err)
	}
}
