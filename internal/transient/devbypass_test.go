package transient_test

import (
	"testing"

	"wavepipe/internal/circuits"
	"wavepipe/internal/trace"
	"wavepipe/internal/transient"
	"wavepipe/internal/waveform"
)

// suiteBench returns one named suite benchmark.
func suiteBench(t *testing.T, name string) circuits.Benchmark {
	t.Helper()
	for _, b := range circuits.Suite() {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("no suite circuit %q", name)
	return circuits.Benchmark{}
}

// TestDeviceBypassSuiteEquivalence runs every suite circuit with the
// incremental assembly engine off and on and requires the probe waveforms to
// agree within the engine's own LTE-scale accuracy band. The engine must
// also actually fire somewhere: a suite where no circuit records a single
// template hit means the wiring regressed, not the tolerance.
func TestDeviceBypassSuiteEquivalence(t *testing.T) {
	var totalHits int64
	for _, b := range circuits.Suite() {
		run := func(on bool) *transient.Result {
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			res, err := transient.Run(sys, transient.Options{TStop: b.TStop / 5, DeviceBypass: on})
			if err != nil {
				t.Fatalf("%s (on=%v): %v", b.Name, on, err)
			}
			return res
		}
		ref := run(false)
		res := run(true)
		if ref.Stats.LinearStampHits != 0 {
			t.Fatalf("%s: engine off, yet %d template hits counted", b.Name, ref.Stats.LinearStampHits)
		}
		dev, err := waveform.Compare(res.W, ref.W, b.Probe)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		// Probes that barely move inside the shortened window (digital
		// outputs before the input edge arrives) make the relative measure
		// a ratio of two roundoff-sized numbers; an absolute femtovolt bound
		// covers those.
		if dev.RelMax() > 0.02 && dev.Max > 1e-9 {
			t.Errorf("%s: templated run deviates by %.4f of signal range (max %g over %g)",
				b.Name, dev.RelMax(), dev.Max, dev.Range)
		}
		totalHits += res.Stats.LinearStampHits
	}
	if totalHits == 0 {
		t.Fatal("no suite circuit recorded a linear-template hit")
	}
}

// TestDeviceBypassStrictModeBitIdentical pins the strict-mode contract:
// DeviceBypass = false keeps the incremental engine out of the run entirely,
// so the run must be bit-identical — not merely close — to one that never
// mentioned the option. The second half pins determinism of the engine
// itself: two template-enabled runs of the same circuit must agree bit for
// bit.
func TestDeviceBypassStrictModeBitIdentical(t *testing.T) {
	b := suiteBench(t, "ring9")
	run := func(on bool) *transient.Result {
		sys, err := b.Make().Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := transient.Run(sys, transient.Options{TStop: b.TStop / 5, DeviceBypass: on})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bitIdentical := func(what string, a, b *transient.Result) {
		t.Helper()
		if len(a.W.Times) != len(b.W.Times) {
			t.Fatalf("%s: %d vs %d time points", what, len(a.W.Times), len(b.W.Times))
		}
		for k := range a.W.Times {
			if a.W.Times[k] != b.W.Times[k] {
				t.Fatalf("%s: time axis diverges at sample %d: %g vs %g",
					what, k, a.W.Times[k], b.W.Times[k])
			}
			for j := range a.W.Data[k] {
				if a.W.Data[k][j] != b.W.Data[k][j] {
					t.Fatalf("%s: sample %d signal %d differs: %g vs %g",
						what, k, j, a.W.Data[k][j], b.W.Data[k][j])
				}
			}
		}
	}
	base := run(false)
	bitIdentical("strict mode vs untouched baseline", run(false), base)
	on := run(true)
	if on.Stats.LinearStampHits == 0 {
		t.Fatal("the template never hit on ring9")
	}
	bitIdentical("template-enabled determinism", run(true), on)
}

// TestDeviceBypassTraceReconciliation replays a complete (unbounded) trace of
// a template-enabled run and requires the per-event counter to reconcile 1:1
// with the run's Stats: every template hit must appear as exactly one
// device-load phase event carrying FlagLinearHit.
func TestDeviceBypassTraceReconciliation(t *testing.T) {
	b := suiteBench(t, "ring9")
	sys, err := b.Make().Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(0)
	res, err := transient.Run(sys, transient.Options{
		TStop:        b.TStop / 5,
		DeviceBypass: true,
		Trace:        trace.New(rec, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LinearStampHits == 0 {
		t.Fatal("engine idle (no template hit): nothing to reconcile")
	}
	c := trace.Replay(rec.Events())
	if int64(c.LinearStampHits) != res.Stats.LinearStampHits {
		t.Errorf("trace replays %d template hits, stats say %d", c.LinearStampHits, res.Stats.LinearStampHits)
	}
}
