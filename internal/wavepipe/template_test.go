package wavepipe

import (
	"testing"

	"wavepipe/internal/circuits"
	"wavepipe/internal/transient"
	"wavepipe/internal/waveform"
)

// TestStampTemplatePipelinedMatchesSerial runs grid16, a linear circuit, at
// the default options through every pipelining scheme and requires the probe
// waveform to track the serial run within 5 % of its range: Forward sits
// 3.5 % off serial there whichever way the matrix is assembled, an error of
// the pipelined step control. Every
// pipeline workspace assembles through a stamp template of its own, so this
// test is the -race workout for templated loads on concurrent points — the CI
// race step runs it with the race detector on.
func TestStampTemplatePipelinedMatchesSerial(t *testing.T) {
	var bench circuits.Benchmark
	for _, b := range circuits.Suite() {
		if b.Name == "grid16" {
			bench = b
		}
	}
	if bench.Make == nil {
		t.Fatal("grid16 missing from the suite")
	}
	tstop := bench.TStop / 2
	refSys, err := bench.Make().Build()
	if err != nil {
		t.Fatal(err)
	}
	if !refSys.Linear() {
		t.Fatal("grid16 is not linear")
	}
	ref, err := transient.Run(refSys, transient.Options{TStop: tstop})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{SchemeBackward, SchemeForward} {
		sys, err := bench.Make().Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sys, Options{Base: transient.Options{TStop: tstop}, Scheme: scheme})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		dev, err := waveform.Compare(res.W, ref.W, bench.Probe)
		if err != nil {
			t.Fatal(err)
		}
		if dev.RelMax() > 0.05 {
			t.Errorf("%v: deviation %.4f of range (max %g over %g)",
				scheme, dev.RelMax(), dev.Max, dev.Range)
		}
	}
}
