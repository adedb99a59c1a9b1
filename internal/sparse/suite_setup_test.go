package sparse_test

import (
	"math/rand"
	"slices"
	"testing"

	"wavepipe/internal/circuits"
	"wavepipe/internal/sparse"
)

// TestSetupMatchesReferenceOnSuite holds set-up to the builder and the
// adjacency construction it replaced, on the Jacobian pattern of every
// evaluation circuit: every entry requested twice in a shuffled order
// compiles to the same ColPtr/RowIdx through both builders, each request
// resolves to the reference slot's position, and A + Aᵀ and its fill
// ordering are the reference's.
func TestSetupMatchesReferenceOnSuite(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, bm := range circuits.Suite() {
		sys, err := bm.Make().Build()
		if err != nil {
			t.Fatal(err)
		}
		pat := sys.NewWorkspace().M
		n := pat.N()
		var reqs [][2]int
		for j := 0; j < n; j++ {
			for _, i := range pat.RowIdx[pat.ColPtr[j]:pat.ColPtr[j+1]] {
				reqs = append(reqs, [2]int{i, j}, [2]int{i, j})
			}
		}
		rng.Shuffle(len(reqs), func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
		b, ref := sparse.NewBuilder(n), sparse.NewRefBuilder(n)
		slots := make([]int, len(reqs))
		for k, rc := range reqs {
			b.Reserve(rc[0], rc[1])
			slots[k] = ref.Reserve(rc[0], rc[1])
		}
		m := b.Compile()
		colPtr, rowIdx, slotPos := ref.Compile()
		if !slices.Equal(m.ColPtr, colPtr) || !slices.Equal(m.RowIdx, rowIdx) ||
			!slices.Equal(m.ColPtr, pat.ColPtr) || !slices.Equal(m.RowIdx, pat.RowIdx) {
			t.Fatalf("%s: compiled pattern differs from the reference", bm.Name)
		}
		for k, rc := range reqs {
			if got, want := m.SlotAt(rc[0], rc[1]), slotPos[slots[k]]; got != want {
				t.Fatalf("%s: %v at position %d, reference %d", bm.Name, rc, got, want)
			}
		}
		adj, refAdj := pat.SymmetrizedAdjacency(), sparse.RefSymmetrizedAdjacency(pat)
		if !slices.EqualFunc(adj, refAdj, slices.Equal[[]int]) {
			t.Fatalf("%s: A + Aᵀ differs from the reference", bm.Name)
		}
		if !slices.Equal(sparse.ComputeOrdering(pat), sparse.MinFill(refAdj)) {
			t.Fatalf("%s: fill ordering differs from the reference", bm.Name)
		}
	}
}
