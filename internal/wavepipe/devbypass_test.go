package wavepipe

import (
	"testing"

	"wavepipe/internal/circuits"
	"wavepipe/internal/transient"
	"wavepipe/internal/waveform"
)

// TestDeviceBypassPipelinedMatchesSerial runs a digital suite circuit through
// every pipelining scheme at 2-4 workers with the incremental assembly engine
// enabled, and requires the probe waveform to track the serial bypass-off
// reference. Each pipeline lane owns an independent incState (the template
// LRU), so this test doubles as the -race workout for concurrent per-point
// template state — the CI race step runs it with the race detector on.
func TestDeviceBypassPipelinedMatchesSerial(t *testing.T) {
	var bench circuits.Benchmark
	for _, b := range circuits.Suite() {
		if b.Name == "inv50" {
			bench = b
		}
	}
	if bench.Make == nil {
		t.Fatal("inv50 missing from the suite")
	}
	tstop := bench.TStop / 2
	mk := func() *Options {
		return &Options{Base: transient.Options{TStop: tstop, DeviceBypass: true}}
	}
	refSys, err := bench.Make().Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := transient.Run(refSys, transient.Options{TStop: tstop})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{SchemeBackward, SchemeForward, SchemeCombined} {
		for _, threads := range []int{2, 4} {
			sys, err := bench.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			opts := mk()
			opts.Scheme = scheme
			opts.Threads = threads
			res, err := Run(sys, *opts)
			if err != nil {
				t.Fatalf("%v/%dT: %v", scheme, threads, err)
			}
			dev, err := waveform.Compare(res.W, ref.W, bench.Probe)
			if err != nil {
				t.Fatal(err)
			}
			if dev.RelMax() > 0.02 && dev.Max > 1e-9 {
				t.Errorf("%v/%dT: deviation %.4f of range (max %g over %g)",
					scheme, threads, dev.RelMax(), dev.Max, dev.Range)
			}
			if res.Stats.LinearStampHits == 0 {
				t.Errorf("%v/%dT: pipelined run recorded no linear-template hits", scheme, threads)
			}
		}
	}
}
