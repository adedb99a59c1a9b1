package wavepipe

// Hot-path acceleration acceptance tests: factorization bypass accuracy on
// the evaluation circuits, bit-identity of the default (bypass-off) paths,
// and the colored device-load mode through the public facade.

import (
	"testing"

	"wavepipe/internal/circuits"
)

func suiteSystem(t *testing.T, name string) (*System, TranOptions) {
	t.Helper()
	for _, bb := range circuits.Suite() {
		if bb.Name != name {
			continue
		}
		sys, err := bb.Make().Build()
		if err != nil {
			t.Fatal(err)
		}
		return sys, TranOptions{TStop: bb.TStop, Record: []string{bb.Probe}}
	}
	t.Fatalf("no suite circuit %q", name)
	return nil, TranOptions{}
}

// TestBypassMatchesReferenceOnSuite: on the two bypass-relevant evaluation
// circuits (a digital ring oscillator and the nonlinear bridge rectifier), a
// run with factorization bypass enabled must stay within the engine's LTE
// accuracy of the exact run, while actually skipping factorizations.
func TestBypassMatchesReferenceOnSuite(t *testing.T) {
	for _, name := range []string{"ring9", "rect1k"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sys, opts := suiteSystem(t, name)
			ref, err := RunTransient(sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Stats.BypassedFactorizations != 0 {
				t.Fatalf("reference run bypassed %d factorizations with BypassTol=0",
					ref.Stats.BypassedFactorizations)
			}
			bp := opts
			bp.BypassTol = 1e-3
			res, err := RunTransient(sys, bp)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.BypassedFactorizations == 0 {
				t.Fatal("BypassTol=1e-3 never bypassed a factorization")
			}
			dev, err := Compare(res.W, ref.W, opts.Record[0])
			if err != nil {
				t.Fatal(err)
			}
			if dev.RelMax() > 0.02 {
				t.Fatalf("bypassed run deviates by %g of signal range (%d bypasses)",
					dev.RelMax(), res.Stats.BypassedFactorizations)
			}
		})
	}
}

// TestZeroBypassTolBitIdentical: with the default options (bypass disabled)
// an explicit BypassTol of zero must change nothing — every scheme produces
// a bit-identical waveform, confirming the bypass plumbing is inert when
// off.
func TestZeroBypassTolBitIdentical(t *testing.T) {
	for _, s := range []Scheme{Serial, Backward, Forward, Combined} {
		def, err := RunTransient(lowpass(t), TranOptions{TStop: 3e-3, Scheme: s, Threads: 4})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		zero, err := RunTransient(lowpass(t), TranOptions{TStop: 3e-3, Scheme: s, Threads: 4, BypassTol: 0})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if def.Stats.BypassedFactorizations != 0 || zero.Stats.BypassedFactorizations != 0 {
			t.Fatalf("%v: bypass counted with BypassTol=0", s)
		}
		if len(def.W.Times) != len(zero.W.Times) {
			t.Fatalf("%v: point counts differ: %d vs %d", s, len(def.W.Times), len(zero.W.Times))
		}
		for k := range def.W.Times {
			if def.W.Times[k] != zero.W.Times[k] {
				t.Fatalf("%v: time %d differs: %g vs %g", s, k, def.W.Times[k], zero.W.Times[k])
			}
			for j := range def.W.Data[k] {
				if def.W.Data[k][j] != zero.W.Data[k][j] {
					t.Fatalf("%v: sample (%d,%d) differs: %g vs %g",
						s, k, j, def.W.Data[k][j], zero.W.Data[k][j])
				}
			}
		}
	}
}
