package wavepipe

// Kernel benchmarks: device load, charge pass, sparse factor and solve on
// suite circuits, the per-point costs the clocked workloads in bench/ add
// up. The pipeline, window, ensemble and reduction numbers are bench/'s
// (bash bench/run.sh).

import (
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/sparse"
)

// loadOnce assembles the grid system once at a transient-like operating
// point (Alpha0 > 0 engages the reactive stamps).
func loadOnce(b *testing.B, ws *circuit.Workspace, x []float64) {
	b.Helper()
	ws.Load(x, circuit.LoadParams{Alpha0: 1e9, Gmin: 1e-12, SrcScale: 1})
}

func findBenchmark(b *testing.B, name string) *System {
	b.Helper()
	for _, bb := range circuits.Suite() {
		if bb.Name == name {
			sys, err := bb.Make().Build()
			if err != nil {
				b.Fatal(err)
			}
			return sys
		}
	}
	b.Fatalf("no benchmark circuit %q", name)
	return nil
}

// Substrate micro-benchmarks: the sparse kernel dominates per-iteration
// cost; track it separately. BenchmarkSparseLUFactorGrid times the full
// factorization (symbolic analysis, pivot search, sorted factors) that every
// workspace pays once under the shared fill ordering.
func BenchmarkSparseLUFactorGrid(b *testing.B) {
	for _, name := range []string{"grid24", "grid32"} {
		sys := findBenchmark(b, name)
		ws := sys.NewWorkspace()
		x := make([]float64, sys.N)
		loadOnce(b, ws, x)
		m := ws.Solver.Materialize()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sparse.FactorizeWithPerm(m, ws.Solver.ColPerm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDeviceLoadGrid(b *testing.B) {
	sys := findBenchmark(b, "grid24")
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loadOnce(b, ws, x)
	}
}

// genericBias is an iterate spread over a 1.8 V rail, one value per unknown.
func genericBias(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1.8 * float64(i*7919%1000) / 1000
	}
	return x
}

// BenchmarkChargePass puts the charge pass that closes every converged point
// beside the loads around it, at a generic bias. A NoLimit Load, the load
// the pass replaces, runs on the three kinds of circuit that
// matter: linear capacitances behind Level-1 MOSFETs (inv50), junction and
// diffusion charge that needs its exp and pow (ecl8), and a large RC mesh
// (grid32). The engine's path — a Newton iteration's Load, limiting on, and
// the BookCharges that closes the point, both through the stamp template —
// runs on the three device models of digital_serial: Level-1 (inv50), EKV
// (ekv30) and bipolar (ecl8).
func BenchmarkChargePass(b *testing.B) {
	for _, name := range []string{"inv50", "ecl8", "grid32"} {
		sys := findBenchmark(b, name)
		ws := sys.NewWorkspace()
		x := genericBias(sys.N)
		p := circuit.LoadParams{Alpha0: 1e9, Gmin: 1e-12, SrcScale: 1, NoLimit: true}
		b.Run(name+"/Load", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ws.Load(x, p)
			}
		})
	}
	for _, name := range []string{"inv50", "ekv30", "ecl8"} {
		sys := findBenchmark(b, name)
		ws := sys.NewWorkspace()
		x := genericBias(sys.N)
		p := circuit.LoadParams{Alpha0: 1e9, Gmin: 1e-12, SrcScale: 1}
		b.Run(name+"/engine/Load", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ws.Load(x, p)
			}
		})
		b.Run(name+"/engine/BookCharges", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ws.BookCharges(x, p)
			}
		})
	}
}

func benchSparseRefactor(b *testing.B, name string) {
	sys := findBenchmark(b, name)
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
	sys := findBenchmark(b, name)
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	loadOnce(b, ws, x)
	if err := ws.Solver.Factorize(); err != nil {
		b.Fatal(err)
	}
	// The engine solves for B − qhist, which is dense: every forward-sweep
	// column runs.
	rhs := genericBias(sys.N)
	out := make([]float64, sys.N)
	if err := ws.Solver.Solve(rhs, out); err != nil { // scratch vector
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ws.Solver.Solve(rhs, out); err != nil {
			b.Fatal(err)
		}
	}
}

// The meshes are the wide-supernode side of the sparse kernels; inv50 and
// ecl8, whose factors have no supernode, the small-pattern side.
func BenchmarkSparseRefactor_Grid16_Serial(b *testing.B) { benchSparseRefactor(b, "grid16") }
func BenchmarkSparseRefactor_Grid32_Serial(b *testing.B) { benchSparseRefactor(b, "grid32") }
func BenchmarkSparseRefactor_Inv50_Serial(b *testing.B)  { benchSparseRefactor(b, "inv50") }
func BenchmarkSparseRefactor_Ecl8_Serial(b *testing.B)   { benchSparseRefactor(b, "ecl8") }

func BenchmarkSparseSolve_Grid16_Serial(b *testing.B) { benchSparseSolve(b, "grid16") }
func BenchmarkSparseSolve_Grid32_Serial(b *testing.B) { benchSparseSolve(b, "grid32") }
func BenchmarkSparseSolve_Inv50_Serial(b *testing.B)  { benchSparseSolve(b, "inv50") }
func BenchmarkSparseSolve_Ecl8_Serial(b *testing.B)   { benchSparseSolve(b, "ecl8") }
