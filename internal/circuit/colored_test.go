package circuit

import (
	"math"
	"sync"
	"testing"
)

// buildStubChain makes a chain of n stub conductances: device i bridges
// node i and node i+1, so adjacent devices conflict (shared node row) and
// non-adjacent ones do not — a circuit with a known two-colorable core.
func buildStubChain(t *testing.T, n int) (*Circuit, *System) {
	t.Helper()
	c := New("chain")
	nodes := make([]int, n+1)
	nodes[0] = Ground
	for i := 1; i <= n; i++ {
		nodes[i] = c.Node(string(rune('a' + i - 1)))
	}
	for i := 0; i < n; i++ {
		c.Add(&stubDevice{name: "S", p: nodes[i+1], n: nodes[i], g: float64(i%5) + 0.5})
	}
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c, sys
}

// TestColoringPartitionsDevices checks the structural invariants of the
// Build-time coloring: every device lands in exactly one class, and no two
// devices of a class share a node (the chain's only conflict source).
func TestColoringPartitionsDevices(t *testing.T) {
	c, sys := buildStubChain(t, 17)
	classes := sys.ColorClasses()
	if len(classes) < 2 {
		t.Fatalf("chain coloring produced %d classes", len(classes))
	}
	seen := make(map[int]bool)
	for _, class := range classes {
		for _, di := range class {
			if seen[di] {
				t.Fatalf("device %d in two classes", di)
			}
			seen[di] = true
		}
	}
	if len(seen) != len(c.devices) {
		t.Fatalf("coloring covers %d of %d devices", len(seen), len(c.devices))
	}
	// Adjacent chain devices conflict on the shared node and must be split.
	color := make([]int, len(c.devices))
	for cc, class := range classes {
		for _, di := range class {
			color[di] = cc
		}
	}
	for di := 1; di < len(c.devices); di++ {
		if color[di] == color[di-1] {
			t.Fatalf("adjacent devices %d and %d share color %d", di-1, di, color[di])
		}
	}
}

// loadInto runs one load on a fresh workspace and returns it: the serial
// loop at workers <= 1, else the colored assembly on a pool of that width,
// forced past the profitability estimate (gang: a forced concurrent gang;
// otherwise the degraded pool's class-order sweep).
func loadInto(t *testing.T, sys *System, workers int, gang bool, x []float64, p LoadParams) *Workspace {
	ws := sys.NewWorkspace()
	if workers <= 1 {
		ws.Load(x, p)
		return ws
	}
	AttachTestPool(t, ws, workers, gang)
	ws.LoadColoredForced(x, p)
	return ws
}

func assertStampsEqual(t *testing.T, a, b *Workspace, tol float64, what string) {
	t.Helper()
	diff := func(u, v float64) bool {
		scale := math.Max(1, math.Max(math.Abs(u), math.Abs(v)))
		return math.Abs(u-v) > tol*scale
	}
	for i := range a.F {
		if diff(a.F[i], b.F[i]) || diff(a.Q[i], b.Q[i]) || diff(a.B[i], b.B[i]) {
			t.Fatalf("%s: vector mismatch at row %d", what, i)
		}
	}
	for i := range a.M.Values {
		if diff(a.M.Values[i], b.M.Values[i]) {
			t.Fatalf("%s: matrix mismatch at slot %d: %g vs %g", what, i, a.M.Values[i], b.M.Values[i])
		}
	}
	if a.Limited != b.Limited {
		t.Fatalf("%s: limited flag mismatch", what)
	}
}

// TestColoredLoadMatchesSerial compares the colored direct-stamp assembly
// (both the degraded serial-class-order path and the true parallel path)
// against the plain serial load.
func TestColoredLoadMatchesSerial(t *testing.T) {
	_, sys := buildStubChain(t, 37)
	x := make([]float64, sys.N)
	for i := range x {
		x[i] = 0.1 * float64(i%7)
	}
	p := LoadParams{Alpha0: 1e3, SrcScale: 0.7, NodeGmin: 1e-6}

	serial := loadInto(t, sys, 1, false, x, p)
	colored := loadInto(t, sys, 4, false, x, p)
	parallel := loadInto(t, sys, 4, true, x, p)
	assertStampsEqual(t, serial, colored, 1e-12, "colored vs serial")
	assertStampsEqual(t, serial, parallel, 1e-12, "parallel colored vs serial")

	// The degraded serial-class-order path and the parallel path accumulate
	// each row in the same class order: bit-identical, not just close.
	for i := range colored.M.Values {
		if colored.M.Values[i] != parallel.M.Values[i] {
			t.Fatalf("colored serial/parallel differ at slot %d", i)
		}
	}
	for i := range colored.F {
		if colored.F[i] != parallel.F[i] || colored.Q[i] != parallel.Q[i] || colored.B[i] != parallel.B[i] {
			t.Fatalf("colored serial/parallel vectors differ at row %d", i)
		}
	}
}

// TestColoredDegenerateFallsBackToSerial builds a star: every device ties
// its own node to the shared hub, so all devices conflict, every class is a
// singleton and the estimated class-parallel speedup is 1 — Load must stay
// on the serial loop, while the colored assembly itself stays correct.
func TestColoredDegenerateFallsBackToSerial(t *testing.T) {
	c := New("star")
	hub := c.Node("hub")
	for i := 0; i < 12; i++ {
		leaf := c.Node(string(rune('a' + i)))
		c.Add(&stubDevice{name: "S", p: leaf, n: hub, g: 1})
	}
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if est := sys.ColoredSpeedupEstimate(4); est > 1.01 {
		t.Fatalf("star speedup estimate = %g, want ~1", est)
	}
	auto := sys.NewWorkspace()
	AttachTestPool(t, auto, 4, true)
	if auto.colored {
		t.Fatal("Load chose colored for a degenerate star coloring")
	}
	x := make([]float64, sys.N)
	for i := range x {
		x[i] = 0.05 * float64(i)
	}
	p := LoadParams{Alpha0: 10, SrcScale: 1}
	serial := loadInto(t, sys, 1, false, x, p)
	forced := loadInto(t, sys, 4, true, x, p)
	assertStampsEqual(t, serial, forced, 1e-12, "forced colored star")
}

// TestColoredLoadConcurrentWorkspaces drives several workspaces through the
// parallel colored path at once, the sharing pattern of the pipeline
// engines; run under -race this checks the barrier discipline.
func TestColoredLoadConcurrentWorkspaces(t *testing.T) {
	_, sys := buildStubChain(t, 24)
	x := make([]float64, sys.N)
	for i := range x {
		x[i] = 0.02 * float64(i%11)
	}
	p := LoadParams{Alpha0: 1e6, SrcScale: 1}
	ref := loadInto(t, sys, 1, false, x, p)

	var wg sync.WaitGroup
	results := make([]*Workspace, 6)
	for w := range results {
		ws := sys.NewWorkspace()
		AttachTestPool(t, ws, 3, true)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 25; rep++ {
				ws.LoadColoredForced(x, p)
			}
			results[w] = ws
		}(w)
	}
	wg.Wait()
	for w, ws := range results {
		if ws == nil {
			t.Fatalf("worker %d produced no workspace", w)
		}
		assertStampsEqual(t, ref, ws, 1e-12, "concurrent colored load")
	}
}

// TestColoredSpeedupEstimateChain sanity-checks the profitability estimate
// Load ranks colorings with: a long two-colorable chain
// should parallelize nearly ideally.
func TestColoredSpeedupEstimateChain(t *testing.T) {
	_, sys := buildStubChain(t, 64)
	if est := sys.ColoredSpeedupEstimate(4); est < 2.5 {
		t.Fatalf("chain estimate at 4 workers = %g, want near 4", est)
	}
	if est := sys.ColoredSpeedupEstimate(1); math.Abs(est-1) > 1e-9 {
		t.Fatalf("single-worker estimate = %g, want 1", est)
	}
}
