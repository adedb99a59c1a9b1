package sparse_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/netlist"
	"wavepipe/internal/sparse"
)

// orderUnchanged names the suite circuits on which minimum fill eliminates in
// minimum degree's order: chains, trees and small device networks, where no
// choice adds fill or the degree tie-break picks the same node.
var orderUnchanged = map[string]bool{
	"ladder400": true, "rlctree8": true, "rect1k": true, "amp10M": true,
	"ring9": true, "inv50": true, "nand5": true, "ekv30": true,
}

// loadedMatrix assembles sys's matrix at a transient-like operating point
// (Alpha0 > 0 engages the reactive stamps) and returns it.
func loadedMatrix(sys *circuit.System) *sparse.Matrix {
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	for i := range x {
		x[i] = 0.1 * float64(i%5)
	}
	ws.Load(x, circuit.LoadParams{Alpha0: 1e9, Gmin: 1e-12, SrcScale: 1})
	return ws.Solver.Materialize()
}

// acMatrix returns the real-equivalent form [G −ωC; ωC G] of sys's
// small-signal system at ω = 2π·100 MHz, built as AC analysis builds it.
func acMatrix(sys *circuit.System) *sparse.Matrix {
	ws := sys.NewWorkspace()
	ws.LoadSplit(make([]float64, sys.N), circuit.LoadParams{Gmin: circuit.JunctionGmin, SrcScale: 1})
	g, c, n := ws.M, ws.MC, sys.N
	type entry struct {
		i, j int
		v    float64
	}
	var es []entry
	omega := 2 * math.Pi * 1e8
	for j := 0; j < n; j++ {
		for p := g.ColPtr[j]; p < g.ColPtr[j+1]; p++ {
			i := g.RowIdx[p]
			es = append(es, entry{i, j, g.Values[p]}, entry{n + i, n + j, g.Values[p]})
			if w := omega * c.Values[p]; w != 0 {
				es = append(es, entry{i, n + j, -w}, entry{n + i, j, w})
			}
		}
	}
	b := sparse.NewBuilder(2 * n)
	for _, e := range es {
		b.Reserve(e.i, e.j)
	}
	m := b.Compile()
	for _, e := range es {
		m.Add(m.SlotAt(e.i, e.j), e.v)
	}
	return m
}

// TestMinimumFillAgainstMinimumDegree holds the production ordering to the
// retired minimum-degree one on every suite circuit, every testdata deck and
// a mesh's AC real-equivalent pattern: a full factorization under it stores
// no more L+U entries and its refactorization costs no more multiply-adds
// (LU.MulAdds).
// The cases run in parallel through SharedOrdering, as concurrent Builds do.
func TestMinimumFillAgainstMinimumDegree(t *testing.T) {
	type fillCase struct {
		name string
		sys  func(t *testing.T) *circuit.System
		ac   bool
	}
	var cases []fillCase
	build := func(c *circuit.Circuit) func(t *testing.T) *circuit.System {
		return func(t *testing.T) *circuit.System {
			sys, err := c.Build()
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
	}
	for _, b := range circuits.Suite() {
		cases = append(cases, fillCase{name: b.Name, sys: build(b.Make())})
	}
	decks, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.sp"))
	if err != nil || len(decks) == 0 {
		t.Fatalf("no testdata decks: %v", err)
	}
	for _, f := range decks {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		d, err := netlist.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		cases = append(cases, fillCase{name: filepath.Base(f), sys: build(d.Circuit)})
	}
	cases = append(cases, fillCase{name: "ac/grid16", sys: build(circuits.PowerGridMesh(16, 1.8)), ac: true})

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys := tc.sys(t)
			m := loadedMatrix(sys)
			if tc.ac {
				m = acMatrix(sys)
			}
			perm, ref := sparse.SharedOrdering(m), sparse.MinDegree(m.SymmetrizedAdjacency())
			fill, err := sparse.FactorizeWithPerm(m, perm)
			if err != nil {
				t.Fatal(err)
			}
			refFill, err := sparse.FactorizeWithPerm(m, ref)
			if err != nil {
				t.Fatal(err)
			}
			lu, refLU := fill.LNNZ()+fill.UNNZ(), refFill.LNNZ()+refFill.UNNZ()
			ops, refOps := fill.MulAdds(), refFill.MulAdds()
			t.Logf("L+U %d (minimum degree %d), refactor multiply-adds %d (%d)", lu, refLU, ops, refOps)
			if lu > refLU || ops > refOps {
				t.Errorf("L+U %d and multiply-adds %d, over minimum degree's %d and %d", lu, ops, refLU, refOps)
			}
			if orderUnchanged[tc.name] && !slices.Equal(perm, ref) {
				t.Errorf("order differs from minimum degree's")
			}
			if tc.name == "grid32" && (lu > 22300 || ops > 215000) {
				t.Errorf("L+U %d and multiply-adds %d, over 22300 and 215000", lu, ops)
			}
		})
	}
}

// minFillByScan is minimum fill computed the plain way: at every step each
// remaining node's deficiency is counted afresh on explicit adjacency sets,
// and the smallest (deficiency, degree, index) is eliminated.
func minFillByScan(adj [][]int) []int {
	n := len(adj)
	nbr := make([]map[int]bool, n)
	for i, a := range adj {
		nbr[i] = make(map[int]bool)
		for _, j := range a {
			nbr[i][j] = true
		}
	}
	done := make([]bool, n)
	var perm []int
	for len(perm) < n {
		best, bestFill := -1, 0
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			fill := 0
			for a := range nbr[v] {
				for b := range nbr[v] {
					if a < b && !nbr[a][b] {
						fill++
					}
				}
			}
			if best < 0 || fill < bestFill || fill == bestFill && len(nbr[v]) < len(nbr[best]) {
				best, bestFill = v, fill
			}
		}
		done[best] = true
		perm = append(perm, best)
		for a := range nbr[best] {
			delete(nbr[a], best)
			for b := range nbr[best] {
				if a != b {
					nbr[a][b] = true
				}
			}
		}
		nbr[best] = nil
	}
	return perm
}

// TestMinimumFillMatchesScan: the queue that rescores only the eliminated
// node's neighbours and the nodes next to its new edges orders random
// patterns and meshes exactly as a full rescan at every step does.
func TestMinimumFillMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		b := sparse.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.Reserve(i, i)
		}
		for k := rng.Intn(3 * n); k > 0; k-- {
			b.Reserve(rng.Intn(n), rng.Intn(n))
		}
		adj := b.Compile().SymmetrizedAdjacency()
		if got, want := sparse.MinFill(adj), minFillByScan(adj); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): order\n got %v\nwant %v", trial, n, got, want)
		}
	}
	sys, err := circuits.PowerGridMesh(8, 1.8).Build()
	if err != nil {
		t.Fatal(err)
	}
	adj := loadedMatrix(sys).SymmetrizedAdjacency()
	if got, want := sparse.MinFill(adj), minFillByScan(adj); !slices.Equal(got, want) {
		t.Fatalf("8×8 mesh: order\n got %v\nwant %v", got, want)
	}
}

// BenchmarkSparseOrdering times the fill ordering of a 64×64 mesh and of an
// 8000-segment RC ladder, each beside the retired minimum-degree ordering of
// the same pattern.
func BenchmarkSparseOrdering(b *testing.B) {
	for _, c := range []struct {
		name string
		ckt  *circuit.Circuit
	}{{"mesh64", circuits.PowerGridMesh(64, 1.8)}, {"ladder8000", circuits.RCLadder(8000)}} {
		sys, err := c.ckt.Build()
		if err != nil {
			b.Fatal(err)
		}
		m := sys.NewWorkspace().M
		b.Run(c.name+"/minfill", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparse.ComputeOrdering(m)
			}
		})
		b.Run(c.name+"/mindegree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparse.MinDegree(m.SymmetrizedAdjacency())
			}
		})
	}
}
