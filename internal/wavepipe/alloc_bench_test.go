package wavepipe

import (
	"runtime"
	"testing"

	"wavepipe/internal/circuits"
	"wavepipe/internal/transient"
)

// BenchmarkPipelineGrid16 guards what a pipelined run allocates beyond its
// serial twin: a stage recycles every point it lets go of and refills its
// histories in place, so Backward and Forward stay within 2.5× the
// allocations of transient.Run on the same system — what is left is set-up
// (a workspace and its factor store per solver, the stage gang) and the
// run's waveform.
func BenchmarkPipelineGrid16(b *testing.B) {
	sys, err := circuits.PowerGridMesh(16, 1.8).Build()
	if err != nil {
		b.Fatal(err)
	}
	base := transient.Options{TStop: 80e-9}
	serial := testing.AllocsPerRun(1, func() {
		if _, err := transient.Run(sys, base); err != nil {
			b.Fatal(err)
		}
	})
	for _, scheme := range []Scheme{SchemeBackward, SchemeForward} {
		b.Run(scheme.String(), func(b *testing.B) {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(sys, Options{Base: base, Scheme: scheme}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			perRun := float64(m1.Mallocs-m0.Mallocs) / float64(b.N)
			b.ReportMetric(perRun, "allocs/run")
			b.ReportMetric(serial, "serial-allocs/run")
			if perRun > 2.5*serial {
				b.Fatalf("%.0f allocs/run, a serial run of the system allocates %.0f", perRun, serial)
			}
		})
	}
}
