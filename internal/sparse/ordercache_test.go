package sparse

import (
	"slices"
	"testing"
)

// tridiag builds a compiled n×n tridiagonal pattern.
func tridiag(n int) *Matrix {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.Reserve(i, i)
		if i > 0 {
			b.Reserve(i, i-1)
			b.Reserve(i-1, i)
		}
	}
	return b.Compile()
}

// SharedOrdering must compute the fill-reducing permutation once per
// distinct pattern: a second request for the same pattern — whether the
// same Matrix or a structurally identical rebuild — is a cache hit
// returning an equal permutation.
func TestSharedOrderingCachesByPattern(t *testing.T) {
	h0, m0 := OrderingCacheCounters()

	a := tridiag(40)
	p1 := SharedOrdering(a)
	if len(p1) != 40 {
		t.Fatalf("perm length %d", len(p1))
	}
	_, mAfterFirst := OrderingCacheCounters()
	if mAfterFirst == m0 {
		t.Fatal("first request was not a miss")
	}

	// Same matrix again: identity fast path.
	p2 := SharedOrdering(a)
	// Structurally identical rebuild: full pattern compare.
	p3 := SharedOrdering(tridiag(40))

	h1, m1 := OrderingCacheCounters()
	if h1-h0 < 2 {
		t.Fatalf("expected >=2 hits, got %d", h1-h0)
	}
	if m1 != mAfterFirst {
		t.Fatalf("repeat requests missed: misses %d -> %d", mAfterFirst, m1)
	}
	for i := range p1 {
		if p1[i] != p2[i] || p1[i] != p3[i] {
			t.Fatalf("cached permutations disagree at %d", i)
		}
	}

	// A different pattern must not be answered from the cache.
	q := SharedOrdering(tridiag(41))
	if len(q) != 41 {
		t.Fatalf("wrong perm for different pattern: len %d", len(q))
	}
	_, m2 := OrderingCacheCounters()
	if m2 == m1 {
		t.Fatal("different pattern did not miss")
	}
}

// The cached permutation must factorize the pattern it was computed for —
// i.e. SharedOrdering agrees with a direct Factorize using the same rule.
func TestSharedOrderingMatchesDirect(t *testing.T) {
	m := tridiag(25)
	perm := SharedOrdering(m)
	seen := make([]bool, len(perm))
	for _, c := range perm {
		if c < 0 || c >= len(perm) || seen[c] {
			t.Fatalf("not a permutation: %v", perm)
		}
		seen[c] = true
	}
}

// TestSourcesFirstPivotsTheBranchRow: a supply node (unknown 0) held by a
// grounded source (branch unknown 2, whose row holds one entry) and loaded by
// node 1. SourcesFirst puts the branch column, then the node's, in front of
// the rest, and the factorization pivots the node's column on the branch row.
func TestSourcesFirstPivotsTheBranchRow(t *testing.T) {
	b := NewBuilder(3)
	entries := []struct {
		i, j int
		v    float64
	}{{0, 0, 2e-3}, {0, 1, -1e-3}, {0, 2, 1}, {1, 0, -1e-3}, {1, 1, 2e-3}, {2, 0, 1}}
	for _, e := range entries {
		b.Reserve(e.i, e.j)
	}
	m := b.Compile()
	for _, e := range entries {
		m.Add(m.SlotAt(e.i, e.j), e.v)
	}
	perm := SourcesFirst(m, []int{1, 0, 2})
	if want := []int{2, 0, 1}; !slices.Equal(perm, want) {
		t.Fatalf("SourcesFirst = %v, want %v", perm, want)
	}
	lu, err := FactorizeWithPerm(m, perm)
	if err != nil {
		t.Fatal(err)
	}
	if lu.rowPerm[1] != 2 {
		t.Fatalf("node column pivoted on row %d, want the branch row 2", lu.rowPerm[1])
	}
}
