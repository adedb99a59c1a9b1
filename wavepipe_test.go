package wavepipe

import (
	"context"
	"fmt"
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
	ref, err := RunTransientCtx(context.Background(), lowpass(t), TranOptions{TStop: 3e-3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheme{Backward, Forward} {
		res, err := RunTransientCtx(context.Background(), lowpass(t), TranOptions{TStop: 3e-3, Scheme: s})
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
		Scheme(3): "unknown",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
	// Retired schemes — the fine-grained baseline, and Combined, four points
	// a stage — no longer parse, so a CLI flag or wire document still
	// carrying one fails loudly.
	for _, name := range []string{"finegrain", "combined"} {
		if _, err := ParseScheme(name); err == nil {
			t.Fatalf("ParseScheme(%q) accepted a retired scheme", name)
		}
	}
}

func TestTranOptionsValidation(t *testing.T) {
	sys := lowpass(t)
	if _, err := RunTransientCtx(context.Background(), sys, TranOptions{}); err == nil {
		t.Fatal("TStop=0 must fail")
	}
	if _, err := RunTransientCtx(context.Background(), sys, TranOptions{TStop: 1e-3, Scheme: Scheme(42)}); err == nil {
		t.Fatal("bad scheme must fail")
	}
	if _, err := RunTransientCtx(context.Background(), sys, TranOptions{TStop: 1e-3, IC: map[string]float64{"zz": 1}}); err == nil {
		t.Fatal("IC for unknown node must fail")
	}
	if _, err := RunTransientCtx(context.Background(), sys, TranOptions{TStop: 1e-3, Record: []string{"zz"}}); err == nil {
		t.Fatal("recording unknown node must fail")
	}
}

// A pipelined scheme runs at its own stage width: Threads may be 0 or that
// width, and any other value is refused with the width named, never clamped.
// Serial leaves Threads to the ensemble gang.
func TestThreadsMustBeTheSchemeWidth(t *testing.T) {
	cases := []struct {
		scheme  Scheme
		width   int
		refused []int
	}{
		{Backward, 2, []int{1, 3, 4, 8}},
		{Forward, 2, []int{1, 3, 4}},
	}
	for _, c := range cases {
		for _, th := range []int{0, c.width} {
			if err := (TranOptions{TStop: 1e-3, Scheme: c.scheme, Threads: th}).validate(); err != nil {
				t.Errorf("%v/Threads %d refused: %v", c.scheme, th, err)
			}
		}
		for _, th := range c.refused {
			err := (TranOptions{TStop: 1e-3, Scheme: c.scheme, Threads: th}).validate()
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("solves %d points a stage", c.width)) {
				t.Errorf("%v/Threads %d: %v, want a refusal naming width %d", c.scheme, th, err, c.width)
			}
		}
		if got := engineWidth(TranOptions{Scheme: c.scheme}); got != c.width {
			t.Errorf("%v: engine width %d, want %d", c.scheme, got, c.width)
		}
	}
	if err := (TranOptions{TStop: 1e-3, Threads: 8}).validate(); err != nil {
		t.Errorf("Serial with an 8-wide gang refused: %v", err)
	}
}

func TestRecordAndToleranceOptions(t *testing.T) {
	res, err := RunTransientCtx(context.Background(), lowpass(t), TranOptions{
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
	def, err := RunTransientCtx(context.Background(), lowpass(t), TranOptions{TStop: 1e-3})
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
	res, err := RunTransientCtx(context.Background(), sys, TranOptions{
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
	res, err := RunDeckCtx(context.Background(), d, TranOptions{Scheme: Backward})
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
	if _, err := RunDeckCtx(context.Background(), d, TranOptions{}); err == nil {
		t.Fatal("deck without .TRAN and without TStop must fail")
	}
	if _, err := RunDeckCtx(context.Background(), d, TranOptions{TStop: 1e-6}); err != nil {
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
	if _, err := RunTransientCtx(context.Background(), sys, TranOptions{TStop: 1e-3, Method: Trapezoidal}); err != nil {
		t.Fatal(err)
	}
}

// acceptSteps is an Observer that records the time and step of every
// accepted point.
type acceptSteps struct{ t, h []float64 }

func (a *acceptSteps) OnEvent(ev TraceEvent) {
	if ev.Kind == TraceKindAccept {
		a.t, a.h = append(a.t, ev.T), append(a.h, ev.H)
	}
}
func (a *acceptSteps) OnSnapshot(TraceSnapshot) {}

// TestStepHeldUntilTheStencilFills: the first point after a restart carries
// no error estimate, so a nonlinear run takes the point after it with the
// same step or less, where a linear run doubles it. The edges are those of
// each circuit's pulse: ecl8's input (0.5 ns delay, 0.3 ns edges, 3.5 ns
// wide) and grid16's current sinks (1 ns delay, 0.5 ns edges, 2 ns wide),
// both every 8 ns.
func TestStepHeldUntilTheStencilFills(t *testing.T) {
	for _, c := range []struct {
		name  string
		edges []float64
		held  bool
	}{
		{"ecl8", []float64{0.5e-9, 0.8e-9, 4.3e-9, 4.6e-9}, true},
		{"grid16", []float64{1e-9, 1.5e-9, 3.5e-9, 4e-9}, false},
	} {
		b, ok := findSuite(c.name)
		if !ok {
			t.Fatalf("no %s benchmark", c.name)
		}
		sys, err := b.Make().Build()
		if err != nil {
			t.Fatal(err)
		}
		var obs acceptSteps
		if _, err := RunTransientCtx(context.Background(), sys, TranOptions{TStop: b.TStop, Record: []string{b.Probe}, Observer: &obs}); err != nil {
			t.Fatal(err)
		}
		atEdge := func(tt float64) bool {
			for _, e := range c.edges {
				for p := e; p < b.TStop; p += 8e-9 {
					if math.Abs(tt-p) <= 1e-12*p {
						return true
					}
				}
			}
			return false
		}
		restarts, doubled := 0, 0
		for k := 0; k+2 < len(obs.t); k++ {
			if !atEdge(obs.t[k]) {
				continue
			}
			restarts++
			if obs.h[k+2] > obs.h[k+1] {
				doubled++
			}
		}
		if restarts == 0 {
			t.Fatalf("%s: no accepted point on an edge", c.name)
		}
		if c.held && doubled > 0 {
			t.Errorf("%s: %d of %d restarts grew the step before the LTE could judge it", c.name, doubled, restarts)
		}
		if !c.held && doubled == 0 {
			t.Errorf("%s: none of %d restarts grew the step", c.name, restarts)
		}
	}
}
