package sparse

import (
	"math/rand"
	"slices"
	"testing"
)

// randomRequests reserves k random (row, col) entries of an n×n matrix in
// both builders, repeats included, and returns them with the reference's
// slot ids.
func randomRequests(rng *rand.Rand, n, k int, b *Builder, ref *RefBuilder) (reqs [][2]int, slots []int) {
	for i := 0; i < k; i++ {
		r, c := rng.Intn(n), rng.Intn(n)
		if i%3 == 0 {
			c = r // MNA stamps pair each off-diagonal with diagonals
		}
		b.Reserve(r, c)
		reqs = append(reqs, [2]int{r, c})
		slots = append(slots, ref.Reserve(r, c))
	}
	return reqs, slots
}

// TestCompileMatchesReference: the counting sort compiles the pattern of
// the map-based reference builder, and every request resolves to the
// position the reference's slot did.
func TestCompileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		b, ref := NewBuilder(n), NewRefBuilder(n)
		reqs, slots := randomRequests(rng, n, rng.Intn(n*n+1), b, ref)
		m := b.Compile()
		colPtr, rowIdx, slotPos := ref.Compile()
		if !slices.Equal(m.ColPtr, colPtr) || !slices.Equal(m.RowIdx, rowIdx) {
			t.Fatalf("trial %d (n=%d, %d requests): pattern differs from the reference", trial, n, len(reqs))
		}
		if len(m.Values) != len(rowIdx) {
			t.Fatalf("trial %d: %d values for %d entries", trial, len(m.Values), len(rowIdx))
		}
		for i, rc := range reqs {
			if got, want := m.SlotAt(rc[0], rc[1]), slotPos[slots[i]]; got != want {
				t.Fatalf("trial %d: request %d %v at position %d, reference %d", trial, i, rc, got, want)
			}
		}
	}
}

// TestSymmetrizedAdjacencyMatchesReference: the sorted merge of A and Aᵀ is
// the per-node set construction's adjacency, and so gives the same fill
// ordering, on random patterns.
func TestSymmetrizedAdjacencyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		b := NewBuilder(n)
		for i := rng.Intn(3 * n); i >= 0; i-- {
			b.Reserve(rng.Intn(n), rng.Intn(n))
		}
		m := b.Compile()
		got, want := m.SymmetrizedAdjacency(), RefSymmetrizedAdjacency(m)
		if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("trial %d (n=%d): adjacency\n got %v\nwant %v", trial, n, got, want)
		}
		if !slices.Equal(minFill(got), minFill(want)) {
			t.Fatalf("trial %d: fill orderings differ", trial)
		}
	}
}
