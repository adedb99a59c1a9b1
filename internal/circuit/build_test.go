package circuit_test

import (
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
)

// BenchmarkBuildGrid32 compiles the mesh_serial benchmark circuit: two
// Reserve passes over its devices, the pattern's counting sort and the
// floating node check.
func BenchmarkBuildGrid32(b *testing.B) {
	c := circuits.PowerGridMesh(32, 1.8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildGrid32Allocs: Build allocates by the array, not by the stamp or
// the column. The map-based pattern builder, a sort per column and a row
// list grown per stamp made 5 260 allocations here; one counting sort and
// positions resolved in a second pass make 52.
func TestBuildGrid32Allocs(t *testing.T) {
	c := circuits.PowerGridMesh(32, 1.8)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := c.Build(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 80 {
		t.Fatalf("Build(grid32) makes %v allocations, want at most 80", allocs)
	}
}

// TestStampsLandAtTheirRequestsOnSuite: on every evaluation circuit, each
// device's stamps land, bit for bit, at the (row, col) entries its Reserve
// asked for, through the positions Build resolved for it.
func TestStampsLandAtTheirRequestsOnSuite(t *testing.T) {
	for _, bm := range circuits.Suite() {
		sys, err := bm.Make().Build()
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, sys.N)
		for i := range x {
			x[i] = 0.1 * float64(1+i%7)
		}
		if err := circuit.CheckStampPositions(sys, x); err != nil {
			t.Errorf("%s: %v", bm.Name, err)
		}
	}
}
