package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// counts is a Solver's three factorization outcomes.
type counts struct{ full, refactor, reused int }

func countsOf(s *Solver) counts {
	return counts{s.FullFactorizations, s.Refactorizations, s.ReusedFactorizations}
}

func wantCounts(t *testing.T, tag string, s *Solver, want counts) {
	t.Helper()
	if got := countsOf(s); got != want {
		t.Fatalf("%s: counts (full, refactor, reused) = %+v, want %+v", tag, got, want)
	}
}

func mustFactorize(t *testing.T, s *Solver) {
	t.Helper()
	if err := s.Factorize(); err != nil {
		t.Fatal(err)
	}
}

// meshSolver returns a minimum-fill solver over a random 6×6 mesh matrix.
func meshSolver(seed int64) *Solver {
	m := meshMatrix(6, rand.New(rand.NewSource(seed)))
	return NewSolver(m, ComputeOrdering(m))
}

// oneSet is a StoreBytes below the size of any set: the keyed store then holds
// the set in hand and nothing else, so a request is answered only when its
// values are those of the most recent refactorization.
const oneSet = 1

// reuseSolver returns a one-set keyed solver whose LU in hand came out of
// Refactor — the only state exact reuse answers from.
func reuseSolver(t *testing.T) (*Solver, counts) {
	t.Helper()
	s := meshSolver(61)
	s.StoreBytes = oneSet
	mustFactorize(t, s) // full
	mustFactorize(t, s) // same values, but the LU came from a full factorization: refactor
	c := counts{full: 1, refactor: 1}
	wantCounts(t, "setup", s, c)
	return s, c
}

// TestExactReuseOnIdenticalValues: identical values are answered from the LU
// in hand without touching a factor.
func TestExactReuseOnIdenticalValues(t *testing.T) {
	s, c := reuseSolver(t)
	// Mark the factors: a reused call leaves even a wrong entry alone.
	lu := s.LU()
	lx0, ux0, ud0 := lu.lx[0], lu.ux[0], lu.ud[0]
	lu.lx[0], lu.ux[0], lu.ud[0] = 111, 222, 333
	for i := 0; i < 3; i++ {
		mustFactorize(t, s)
		c.reused++
		wantCounts(t, "identical values", s, c)
		if !s.LastReused {
			t.Fatalf("call %d: LastReused=false", i)
		}
	}
	if lu.lx[0] != 111 || lu.ux[0] != 222 || lu.ud[0] != 333 {
		t.Fatal("a reused call rewrote the factors")
	}
	lu.lx[0], lu.ux[0], lu.ud[0] = lx0, ux0, ud0

	// A real change refactors, and clears LastReused.
	s.M.Values[3] *= 1.5
	mustFactorize(t, s)
	c.refactor++
	wantCounts(t, "changed value", s, c)
	if s.LastReused {
		t.Fatal("LastReused survived a refactorization")
	}
}

// TestExactReuseIsBitExact: the comparison is on the IEEE bits. One ulp, a
// zero changing sign and a NaN are all changes.
func TestExactReuseIsBitExact(t *testing.T) {
	// A pattern with a structural zero to flip the sign of: entry (0,2).
	b := NewBuilder(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			b.Reserve(i, j)
		}
	}
	m := b.Compile()
	for i, row := range [][]float64{{4, 1, 0}, {1, 5, 2}, {0.5, 2, 6}} {
		for j, v := range row {
			m.Add(m.SlotAt(i, j), v)
		}
	}
	s := NewSolver(m, identity(m.N()))
	s.StoreBytes = oneSet
	mustFactorize(t, s)
	mustFactorize(t, s)
	c := counts{full: 1, refactor: 1}
	mustFactorize(t, s)
	c.reused++
	wantCounts(t, "baseline", s, c)

	zero := m.SlotAt(0, 2)
	other := m.SlotAt(1, 1)
	for _, ch := range []struct {
		name string
		pos  int
		val  float64
	}{
		{"one ulp up", other, math.Nextafter(m.Values[other], math.Inf(1))},
		{"+0 to -0", zero, math.Copysign(0, -1)},
		{"-0 to +0", zero, 0},
	} {
		m.Values[ch.pos] = ch.val
		mustFactorize(t, s)
		c.refactor++
		wantCounts(t, ch.name, s, c)
		mustFactorize(t, s) // and the new values are now the snapshot
		c.reused++
		wantCounts(t, ch.name+", repeated", s, c)
	}

	// A NaN is a change whatever happens next (the refactorization may go
	// through or fall back and fail); it is never answered by reuse.
	m.Values[other] = math.NaN()
	_ = s.Factorize()
	if s.ReusedFactorizations != c.reused {
		t.Fatal("a NaN entry was answered by reuse")
	}
}

// bothStores runs f against a keyed store of one set and against one with
// room to spare.
func bothStores(t *testing.T, f func(t *testing.T, storeBytes int)) {
	t.Run("one set", func(t *testing.T) { f(t, oneSet) })
	t.Run("keyed", func(t *testing.T) { f(t, 1<<20) })
}

// wantEmptyStore fails unless the solver holds no set a request could be
// answered from.
func wantEmptyStore(t *testing.T, tag string, s *Solver) {
	t.Helper()
	if n := len(s.store.sets); n != 0 {
		t.Fatalf("%s: store still holds %d sets", tag, n)
	}
}

// TestUnkeyedSolverNeverReuses: without a keyed store every request after the
// first refactorizes, identical values or not, and no copy of the values is
// kept.
func TestUnkeyedSolverNeverReuses(t *testing.T) {
	s := meshSolver(61)
	mustFactorize(t, s)
	for i := 0; i < 3; i++ {
		mustFactorize(t, s)
	}
	wantCounts(t, "identical values", s, counts{full: 1, refactor: 3})
	wantEmptyStore(t, "unkeyed", s)
	if s.store.cur.values != nil {
		t.Fatal("an unkeyed solver copied the matrix values")
	}
}

// TestNoReuseFromUnrefactoredLU: an LU out of a full factorization, a
// restored one, and one behind a failed refactorization never answer a
// request, identical values or not — the next call refactors. Each of the
// three also changes or voids the pivot sequence every stored set was
// computed along, so each empties a keyed store: values it held before are
// refactorized again afterwards.
func TestNoReuseFromUnrefactoredLU(t *testing.T) {
	bothStores(t, func(t *testing.T, storeBytes int) {
		s := meshSolver(67)
		s.StoreBytes = storeBytes
		base := append([]float64(nil), s.M.Values...)
		mustFactorize(t, s) // full
		c := counts{full: 1}
		wantEmptyStore(t, "after full", s)
		mustFactorize(t, s) // first call after a full factorization
		c.refactor++
		wantCounts(t, "after full", s, c)
		request(t, s, variant(base, 1)) // a second set for the keyed store to hold
		c.refactor++

		if err := s.RestoreFactor(s.FactorState()); err != nil {
			t.Fatal(err)
		}
		wantEmptyStore(t, "after restore", s)
		for _, k := range []int{1, 0} { // both were refactored before the restore
			request(t, s, variant(base, k))
			c.refactor++
			wantCounts(t, "after restore", s, c)
			wantRefactorBits(t, "after restore", s, variant(base, k))
		}
		mustFactorize(t, s)
		c.reused++
		wantCounts(t, "after restore, repeated", s, c)

		// Force the ErrRefactorPivot fallback: a 2×2 whose stored pivots vanish.
		m := FromDense([][]float64{{4, 1}, {1, 4}})
		s = NewSolver(m, identity(m.N()))
		s.StoreBytes = storeBytes
		good := append([]float64(nil), m.Values...)
		mustFactorize(t, s)
		mustFactorize(t, s)
		c = counts{full: 1, refactor: 1}
		setAt(t, m, 0, 0, 0)
		setAt(t, m, 1, 1, 0)
		mustFactorize(t, s) // refactor fails, full factorization re-pivots
		c.full++
		wantCounts(t, "fallback", s, c)
		wantEmptyStore(t, "fallback", s)
		mustFactorize(t, s) // same values, LU from the fallback: refactor
		c.refactor++
		wantCounts(t, "after fallback", s, c)
		mustFactorize(t, s)
		c.reused++
		wantCounts(t, "after fallback, repeated", s, c)
		request(t, s, good) // refactored along the old pivots, never along these
		c.refactor++
		wantCounts(t, "old values, new pivots", s, c)
		wantRefactorBits(t, "old values, new pivots", s, good)
	})
}

// TestFailedRefactorInvalidatesSnapshot: when the refactorization fails and
// the full factorization behind it fails too, the solver is left holding
// factors of undefined content. Going back to the last good values must not
// be answered from them.
func TestFailedRefactorInvalidatesSnapshot(t *testing.T) {
	bothStores(t, func(t *testing.T, storeBytes int) {
		m := FromDense([][]float64{{4, 1}, {1, 4}})
		s := NewSolver(m, identity(m.N()))
		s.StoreBytes = storeBytes
		mustFactorize(t, s)
		mustFactorize(t, s)
		good := append([]float64(nil), m.Values...)
		for p := range m.Values {
			m.Values[p] = 0
		}
		if err := s.Factorize(); err == nil {
			t.Fatal("a zero matrix factorized")
		}
		wantEmptyStore(t, "after the double failure", s)
		copy(m.Values, good)
		mustFactorize(t, s)
		if s.LastReused {
			t.Fatal("answered from undefined factors")
		}
		x := make([]float64, 2)
		if err := s.Solve([]float64{5, 5}, x); err != nil {
			t.Fatal(err)
		}
		if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
			t.Fatalf("x = %v, want [1 1]", x)
		}
	})
}
