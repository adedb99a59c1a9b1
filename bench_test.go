package wavepipe

// Benchmark harness: one testing.B benchmark per evaluation table and
// figure (see DESIGN.md experiment index). Each benchmark simulates a
// representative circuit of the corresponding experiment and reports the
// deterministic critical-path metrics alongside wall time:
//
//	stages  — sequential solve rounds (the multi-core critical-path length)
//	points  — accepted time points
//
// cmd/wavebench regenerates the full tables across the whole suite; these
// benchmarks are the per-experiment entry points for `go test -bench`.

import (
	"context"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
)

// loadOnce assembles the grid system once at a transient-like operating
// point (Alpha0 > 0 engages the reactive stamps).
func loadOnce(b *testing.B, ws *circuit.Workspace, x []float64) {
	b.Helper()
	ws.Load(x, circuit.LoadParams{Alpha0: 1e9, Gmin: 1e-12, SrcScale: 1})
}

// benchWindowScale keeps single benchmark iterations in the tens of
// milliseconds so `go test -bench=.` stays practical.
const benchWindowScale = 0.25

func findBenchmark(b *testing.B, name string) (sys *System, opts TranOptions) {
	b.Helper()
	for _, bb := range circuits.Suite() {
		if bb.Name != name {
			continue
		}
		s, err := bb.Make().Build()
		if err != nil {
			b.Fatal(err)
		}
		return s, TranOptions{
			TStop:  bb.TStop * benchWindowScale,
			Record: []string{bb.Probe},
		}
	}
	b.Fatalf("no benchmark circuit %q", name)
	return nil, TranOptions{}
}

func runScheme(b *testing.B, circuitName string, scheme Scheme) {
	sys, opts := findBenchmark(b, circuitName)
	opts.Scheme = scheme
	var last *Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunTransientCtx(context.Background(), sys, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	b.ReportMetric(float64(last.Stats.Stages), "stages")
	b.ReportMetric(float64(last.Stats.Points), "points")
	b.ReportMetric(float64(last.Stats.CriticalNanos)/1e6, "model-ms")
}

// Table 1 is regenerated by construction: building every suite circuit.
func BenchmarkTable1_BuildSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bb := range circuits.Suite() {
			if _, err := bb.Make().Build(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Table 2: backward pipelining vs serial.
func BenchmarkTable2_Grid16_Serial(b *testing.B) { runScheme(b, "grid16", Serial) }
func BenchmarkTable2_Grid16_BWP2(b *testing.B)   { runScheme(b, "grid16", Backward) }
func BenchmarkTable2_Ladder_Serial(b *testing.B) { runScheme(b, "ladder400", Serial) }
func BenchmarkTable2_Ladder_BWP2(b *testing.B)   { runScheme(b, "ladder400", Backward) }
func BenchmarkTable2_Rect1k_Serial(b *testing.B) { runScheme(b, "rect1k", Serial) }
func BenchmarkTable2_Rect1k_BWP2(b *testing.B)   { runScheme(b, "rect1k", Backward) }

// Table 3: forward pipelining vs serial.
func BenchmarkTable3_Rect1k_FWP2(b *testing.B)  { runScheme(b, "rect1k", Forward) }
func BenchmarkTable3_Ring9_Serial(b *testing.B) { runScheme(b, "ring9", Serial) }
func BenchmarkTable3_Ring9_FWP2(b *testing.B)   { runScheme(b, "ring9", Forward) }

// Table 4: combined WavePipe.
func BenchmarkTable4_Grid16_CMB4(b *testing.B)  { runScheme(b, "grid16", Combined) }
func BenchmarkTable4_Nand5_Serial(b *testing.B) { runScheme(b, "nand5", Serial) }
func BenchmarkTable4_Nand5_CMB4(b *testing.B)   { runScheme(b, "nand5", Combined) }

// Figure F1 (step-size trace): serial vs backward on the rectifier, the
// circuit whose trace the figure plots.
func BenchmarkFig1_StepTrace_BWP2(b *testing.B) { runScheme(b, "rect1k", Backward) }

// Figure F2 (accuracy): the comparison cost itself — run both engines and
// compare waveforms.
func BenchmarkFig2_Accuracy_Ring9(b *testing.B) {
	sys, opts := findBenchmark(b, "ring9")
	for i := 0; i < b.N; i++ {
		ref, err := RunTransientCtx(context.Background(), sys, opts)
		if err != nil {
			b.Fatal(err)
		}
		wp := opts
		wp.Scheme = Combined
		res, err := RunTransientCtx(context.Background(), sys, wp)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Compare(res.W, ref.W, "s0"); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure F3 (archived; the thread sweep is gone): the large grid, serial
// beside the two-point and four-point stages.
func BenchmarkFig3_Grid24_Serial(b *testing.B) { runScheme(b, "grid24", Serial) }
func BenchmarkFig3_Grid24_BWP2(b *testing.B)   { runScheme(b, "grid24", Backward) }
func BenchmarkFig3_Grid24_CMB4(b *testing.B)   { runScheme(b, "grid24", Combined) }

// Figure F4 (work overhead): the combined scheme's total work on the RLC
// tree, the highest-point-count circuit.
func BenchmarkFig4_RLCTree_CMB4(b *testing.B) { runScheme(b, "rlctree8", Combined) }

// Substrate micro-benchmarks: the sparse kernel dominates per-iteration
// cost; track it separately.
func BenchmarkSparseLUFactorGrid(b *testing.B) {
	sys, _ := findBenchmark(b, "grid24")
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	loadOnce(b, ws, x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.Solver.Factorize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseSolveGrid(b *testing.B) {
	sys, _ := findBenchmark(b, "grid24")
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	loadOnce(b, ws, x)
	if err := ws.Solver.Factorize(); err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, sys.N)
	rhs[0] = 1
	out := make([]float64, sys.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.Solver.Solve(rhs, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceLoadGrid(b *testing.B) {
	sys, _ := findBenchmark(b, "grid24")
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadOnce(b, ws, x)
	}
}

// BenchmarkChargePass puts the charge pass that closes every converged point
// (Workspace.LoadCharges) beside the full Load it replaced there, at a generic
// bias, on the three kinds of circuit that matter: linear capacitances behind
// Level-1 MOSFETs (inv50), junction and diffusion charge that needs its exp
// and pow (ecl8), and a large RC mesh (grid32).
func BenchmarkChargePass(b *testing.B) {
	for _, name := range []string{"inv50", "ecl8", "grid32"} {
		sys, _ := findBenchmark(b, name)
		ws := sys.NewWorkspace()
		x := make([]float64, sys.N)
		for i := range x {
			x[i] = 1.8 * float64(i*7919%1000) / 1000
		}
		p := circuit.LoadParams{Alpha0: 1e9, Gmin: 1e-12, SrcScale: 1, NoLimit: true}
		b.Run(name+"/Load", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ws.Load(x, p)
			}
		})
		b.Run(name+"/LoadCharges", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ws.LoadCharges(x, p)
			}
		})
	}
}

func benchSparseRefactor(b *testing.B, name string) {
	sys, _ := findBenchmark(b, name)
	ws := sys.NewWorkspace()
	// The meshes are linear systems, whose solver keeps a store of earlier
	// factorizations: it would answer the second visit of either value below
	// from there, and allocate a set for the first. Off, the kernel is timed.
	ws.Solver.StoreBytes = 0
	x := make([]float64, sys.N)
	loadOnce(b, ws, x)
	if err := ws.Solver.Factorize(); err != nil { // pivot sequence
		b.Fatal(err)
	}
	// Handed unchanged values the solver answers from the LU in hand (exact
	// reuse) and the loop would time a compare. One value alternates between
	// two neighbours so every call is a real refactorization; the first one
	// runs before the timer, where the kernel's one-time buffers are made.
	vals := ws.Solver.M.Values
	v0 := vals[0]
	refactor := func(i int) {
		vals[0] = v0 * (1 + float64(i&1)*1e-12)
		if err := ws.Solver.Factorize(); err != nil {
			b.Fatal(err)
		}
	}
	refactor(1)
	before := ws.Solver.Refactorizations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refactor(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(ws.Solver.Refactorizations-before)/float64(b.N), "refactorizations/op")
}

func benchSparseSolve(b *testing.B, name string) {
	sys, _ := findBenchmark(b, name)
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	loadOnce(b, ws, x)
	if err := ws.Solver.Factorize(); err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, sys.N)
	rhs[0] = 1
	out := make([]float64, sys.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.Solver.Solve(rhs, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseRefactor_Grid16_Serial(b *testing.B) { benchSparseRefactor(b, "grid16") }
func BenchmarkSparseRefactor_Grid32_Serial(b *testing.B) { benchSparseRefactor(b, "grid32") }

func BenchmarkSparseSolve_Grid16_Serial(b *testing.B) { benchSparseSolve(b, "grid16") }
func BenchmarkSparseSolve_Grid32_Serial(b *testing.B) { benchSparseSolve(b, "grid32") }
