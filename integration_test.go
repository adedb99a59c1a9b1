package wavepipe

// Deck-driven integration tests: every SPICE deck under testdata/ is
// simulated with the serial engine and every WavePipe scheme, and the
// pipelined waveforms must track serial within tolerance-scale deviation —
// the reproduction's central invariant, exercised on realistic mixed
// circuits (op-amp filter, CMOS latch, switched transformer, ECL gate,
// hierarchical RC sections). Decks carrying .AC or .DC cards additionally
// run those analyses.

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// deckProbe names the signal each deck's comparison uses.
var deckProbe = map[string]string{
	"opamp_filter.sp":  "out",
	"cmos_latch.sp":    "q",
	"flyback.sp":       "out",
	"ecl_gate.sp":      "out",
	"subckt_filter.sp": "out",
	"grid16.sp":        "n8_8",
}

// edgeDecks holds circuits with regenerative gain stages, where pointwise
// and RMS comparisons measure edge-placement jitter rather than solution
// quality (two serial runs at different tolerances differ the same way);
// their acceptance gate is endpoint agreement plus the edge-timing test.
var edgeDecks = map[string]bool{
	"cmos_latch.sp": true,
	"ecl_gate.sp":   true,
}

func loadDecks(t *testing.T) map[string]*Deck {
	t.Helper()
	files, err := filepath.Glob("testdata/*.sp")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata decks: %v", err)
	}
	decks := make(map[string]*Deck)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ParseDeck(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		decks[filepath.Base(f)] = d
	}
	return decks
}

func TestDecksTransientAllSchemes(t *testing.T) {
	for name, deck := range loadDecks(t) {
		probe, ok := deckProbe[name]
		if !ok {
			t.Fatalf("no probe registered for %s", name)
		}
		ref, err := RunDeckCtx(context.Background(), deck, TranOptions{Record: []string{probe}})
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		if ref.Stats.Points < 20 {
			t.Fatalf("%s: suspiciously few points (%d)", name, ref.Stats.Points)
		}
		lo, hi, err := ref.W.Extremes(probe)
		if err != nil {
			t.Fatal(err)
		}
		if hi-lo < 1e-3 {
			t.Fatalf("%s: probe %s never moves (range %g)", name, probe, hi-lo)
		}
		for _, scheme := range []Scheme{Backward, Forward} {
			res, err := RunDeckCtx(context.Background(), deck, TranOptions{
				Record: []string{probe}, Scheme: scheme,
			})
			if err != nil {
				t.Fatalf("%s %v: %v", name, scheme, err)
			}
			dev, err := Compare(res.W, ref.W, probe)
			if err != nil {
				t.Fatal(err)
			}
			if !edgeDecks[name] {
				if rms := dev.RMS / dev.Range; rms > 0.02 {
					t.Errorf("%s %v: RMS deviation %.4f of range", name, scheme, rms)
				}
			}
			tEnd := ref.W.Times[ref.W.Len()-1]
			a, _ := res.W.At(probe, tEnd)
			b, _ := ref.W.At(probe, tEnd)
			if math.Abs(a-b) > 0.05*dev.Range {
				t.Errorf("%s %v: endpoint %.4g vs %.4g", name, scheme, a, b)
			}
		}
	}
}

func TestDecksACCards(t *testing.T) {
	decks := loadDecks(t)

	// The op-amp filter is a second-order low-pass: the response must fall
	// monotonically past the corner and reach a steep rolloff.
	res, err := RunDeckAC(decks["opamp_filter.sp"], ACOptions{Record: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	db, err := res.MagDB("out")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(db[0]) > 0.2 {
		t.Fatalf("passband gain = %g dB, want ≈0", db[0])
	}
	last := db[len(db)-1]
	if last > -40 {
		t.Fatalf("stopband only %g dB down at %g Hz", last, res.Freqs[len(res.Freqs)-1])
	}
	// Second-order slope: ≈ −40 dB/decade far above the corner.
	k := len(db) - 1
	slope := (db[k] - db[k-10]) // 10 points per decade
	if slope > -30 || slope < -50 {
		t.Fatalf("rolloff slope %g dB/dec, want ≈−40", slope)
	}

	// Three cascaded RC sections: third-order rolloff.
	res2, err := RunDeckAC(decks["subckt_filter.sp"], ACOptions{Record: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	db2, _ := res2.MagDB("out")
	if db2[len(db2)-1] > -45 {
		t.Fatalf("cascade stopband = %g dB", db2[len(db2)-1])
	}
}

func TestDecksDCCards(t *testing.T) {
	decks := loadDecks(t)
	sweep, err := RunDeckDC(decks["ecl_gate.sp"], []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	// ECL transfer curve: output low when the input is below VREF, high
	// above it, switching near −1.3 V. QF is a non-inverting follower of
	// the reference-side collector.
	vLow, _ := sweep.At("out", -2.0)
	vHigh, _ := sweep.At("out", -0.6)
	if vHigh-vLow < 0.4 {
		t.Fatalf("ECL logic swing = %g (low %g, high %g)", vHigh-vLow, vLow, vHigh)
	}
	// The transition must happen near the reference voltage.
	mid := (vLow + vHigh) / 2
	cross, err := sweep.CrossingTimes("out", mid, 0)
	if err != nil || len(cross) == 0 {
		t.Fatalf("no switching threshold found: %v", err)
	}
	if cross[0] < -1.5 || cross[0] > -1.1 {
		t.Fatalf("switching threshold at %g, want ≈−1.3", cross[0])
	}
}

// Edge timing must agree between serial and pipelined runs on the
// gain-stage circuits where pointwise comparison is jitter-dominated.
func TestDecksEdgeTiming(t *testing.T) {
	decks := loadDecks(t)
	for _, name := range []string{"ecl_gate.sp", "cmos_latch.sp"} {
		probe := deckProbe[name]
		ref, err := RunDeckCtx(context.Background(), decks[name], TranOptions{Record: []string{probe}})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, _ := ref.W.Extremes(probe)
		mid := (lo + hi) / 2
		refCross, err := ref.W.CrossingTimes(probe, mid, +1)
		if err != nil || len(refCross) == 0 {
			t.Fatalf("%s: no reference edges", name)
		}
		for _, scheme := range []Scheme{Backward, Forward} {
			res, err := RunDeckCtx(context.Background(), decks[name], TranOptions{Record: []string{probe}, Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			cross, err := res.W.CrossingTimes(probe, mid, +1)
			if err != nil || len(cross) == 0 {
				t.Fatalf("%s %v: no edges", name, scheme)
			}
			// First rising edge within 100 ps of serial's.
			if d := math.Abs(cross[0] - refCross[0]); d > 100e-12 {
				t.Errorf("%s %v: first edge shifted by %.3g s", name, scheme, d)
			}
		}
	}
}

func TestDeckMeasurements(t *testing.T) {
	decks := loadDecks(t)
	res, err := RunDeckCtx(context.Background(), decks["cmos_latch.sp"], TranOptions{Record: []string{"q", "qb", "set"}})
	if err != nil {
		t.Fatal(err)
	}
	// The latch output q must end high and complementary to qb.
	q, _ := res.W.At("q", 20e-9)
	qb, _ := res.W.At("qb", 20e-9)
	if q < 1.5 || qb > 0.3 {
		t.Fatalf("latch end state q=%g qb=%g", q, qb)
	}
	// Rise time of q is resolvable and sub-nanosecond.
	rt, err := res.W.RiseTime("q")
	if err != nil {
		t.Fatal(err)
	}
	if rt <= 0 || rt > 2e-9 {
		t.Fatalf("latch rise time = %g", rt)
	}
	// Propagation: q responds after the set edge.
	d, err := res.W.Delay("set", +1, "q", +1)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 5e-9 {
		t.Fatalf("set→q delay = %g", d)
	}
}

func TestDeckRoundTripsThroughWriter(t *testing.T) {
	for name, deck := range loadDecks(t) {
		if strings.Contains(name, "subckt") {
			continue // writer emits the flattened circuit; node names differ
		}
		var sb strings.Builder
		if err := WriteDeck(&sb, deck); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d2, err := ParseDeck(sb.String())
		if err != nil {
			t.Fatalf("%s reparse: %v\n%s", name, err, sb.String())
		}
		if len(d2.Circuit.Devices()) != len(deck.Circuit.Devices()) {
			t.Fatalf("%s: device count changed %d -> %d", name,
				len(deck.Circuit.Devices()), len(d2.Circuit.Devices()))
		}
	}
}
