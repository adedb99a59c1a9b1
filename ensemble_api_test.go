package wavepipe

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
)

const sweepDeck = `rc corner fixture
.param rval=1k
V1 in 0 PULSE(0 1 0 1p 1p 1 2)
R1 in out {rval}
C1 out 0 1n
.tran 1n 5u
.end
`

// RunEnsemble must elaborate one lane per variant — .PARAM overrides and
// direct device overrides — and every lane's waveform must match its own
// serial RunDeck bit for bit.
func TestRunEnsembleMatchesSerial(t *testing.T) {
	d, err := ParseDeck(sweepDeck)
	if err != nil {
		t.Fatal(err)
	}
	variants := []LaneSpec{
		{Name: "nominal"},
		{Name: "fast", Params: map[string]float64{"rval": 470}},
		{Name: "slow", Params: map[string]float64{"rval": 2.2e3}},
		{Name: "bigC", Devices: map[string]float64{"C1": 2.2e-9}},
	}
	res, err := RunEnsembleCtx(context.Background(), d, variants, TranOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lanes) != len(variants) {
		t.Fatalf("%d lane results, want %d", len(res.Lanes), len(variants))
	}

	for i, spec := range variants {
		lr := res.Lanes[i]
		if lr.Name != spec.Name {
			t.Fatalf("lane %d named %q, want %q", i, lr.Name, spec.Name)
		}
		if lr.Err != nil {
			t.Fatalf("lane %q failed: %v", lr.Name, lr.Err)
		}
		// Serial reference: re-elaborate the same variant by hand.
		src := sweepDeck
		if v, ok := spec.Params["rval"]; ok {
			src = strings.Replace(src, "rval=1k", "rval="+trim(v), 1)
		}
		sd, err := ParseDeck(src)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := spec.Devices["C1"]; ok {
			for _, dev := range sd.Circuit.Devices() {
				if strings.EqualFold(dev.Name(), "C1") {
					dev.(interface{ SetValue(float64) }).SetValue(v)
				}
			}
		}
		want, err := RunDeck(sd, TranOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := lr.Res.W
		if got.Len() != want.W.Len() {
			t.Fatalf("lane %q: %d points vs serial %d", lr.Name, got.Len(), want.W.Len())
		}
		for p := range got.Times {
			if got.Times[p] != want.W.Times[p] {
				t.Fatalf("lane %q point %d: t=%g vs %g", lr.Name, p, got.Times[p], want.W.Times[p])
			}
			for j := range got.Data[p] {
				if got.Data[p][j] != want.W.Data[p][j] {
					t.Fatalf("lane %q point %d signal %d diverged", lr.Name, p, j)
				}
			}
		}
	}

	// The corners must actually differ from one another.
	vNom, _ := res.Lanes[0].Res.W.At("out", 1e-6)
	vFast, _ := res.Lanes[1].Res.W.At("out", 1e-6)
	if math.Abs(vNom-vFast) < 1e-3 {
		t.Fatalf("fast corner did not separate from nominal: %g vs %g", vFast, vNom)
	}
	if res.Stats.CriticalNanos <= 0 {
		t.Fatal("aggregate critical path missing")
	}
}

func trim(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Unknown parameter and device names must be rejected, not silently run
// as the nominal circuit.
func TestRunEnsembleRejectsUnknownNames(t *testing.T) {
	d, err := ParseDeck(sweepDeck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunEnsembleCtx(context.Background(), d, []LaneSpec{{Params: map[string]float64{"rvla": 1}}}, TranOptions{}); err == nil {
		t.Fatal("misspelled parameter accepted")
	}
	if _, err := RunEnsembleCtx(context.Background(), d, []LaneSpec{{Devices: map[string]float64{"R9": 1}}}, TranOptions{}); err == nil {
		t.Fatal("unknown device accepted")
	}
	if _, err := RunEnsembleCtx(context.Background(), d, nil, TranOptions{}); err == nil {
		t.Fatal("empty variant list accepted")
	}
	if _, err := RunEnsembleCtx(context.Background(), d, []LaneSpec{{}}, TranOptions{Scheme: Combined}); err == nil {
		t.Fatal("non-serial scheme accepted")
	}
	if _, err := RunEnsembleCtx(context.Background(), d, []LaneSpec{{}}, TranOptions{DeviceBypass: true}); err == nil {
		t.Fatal("device bypass accepted")
	}
	// The callback has no lane argument; it used to be forwarded and then
	// never called.
	onAccept := func(float64, []float64) { t.Error("OnAccept called from an ensemble run") }
	if _, err := RunEnsembleCtx(context.Background(), d, []LaneSpec{{}}, TranOptions{OnAccept: onAccept}); err == nil {
		t.Fatal("OnAccept accepted")
	}
}

// RunEnsembleCircuits covers programmatic lanes (no deck source).
func TestRunEnsembleCircuits(t *testing.T) {
	mk := func(r float64) *Circuit {
		c := NewCircuit("rc")
		in, out := c.Node("in"), c.Node("out")
		AddVSource(c, "V1", in, Ground, DC(1))
		AddResistor(c, "R1", in, out, r)
		AddCapacitor(c, "C1", out, Ground, 1e-9)
		return c
	}
	res, err := RunEnsembleCircuitsCtx(context.Background(), []*Circuit{mk(1e3), mk(2e3)}, TranOptions{TStop: 5e-6})
	if err != nil {
		t.Fatal(err)
	}
	for i, lr := range res.Lanes {
		if lr.Err != nil {
			t.Fatalf("lane %d: %v", i, lr.Err)
		}
		v, err := lr.Res.W.At("out", 5e-6)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-1) > 1e-2 {
			t.Fatalf("lane %d did not settle: %g", i, v)
		}
	}
}
