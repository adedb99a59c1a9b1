package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// keyedSolver returns a mesh solver whose store has room for sets factor
// sets, holding a full factorization of its base values, and those values.
func keyedSolver(t *testing.T, seed int64, sets int) (*Solver, []float64) {
	t.Helper()
	s := NewSolver(meshMatrix(6, rand.New(rand.NewSource(seed))), OrderMinDegree)
	mustFactorize(t, s)
	s.StoreBytes = sets * s.store.cur.bytes()
	return s, append([]float64(nil), s.M.Values...)
}

// variant is the k-th member of a family of matrices on base's pattern, the
// way a linear circuit's matrices are a family in Alpha0.
func variant(base []float64, k int) []float64 {
	v := append([]float64(nil), base...)
	for i := 0; i < len(v); i += 3 {
		v[i] *= 1 + 0.03*float64(k)
	}
	return v
}

// request hands the solver values and factorizes.
func request(t *testing.T, s *Solver, values []float64) {
	t.Helper()
	copy(s.M.Values, values)
	mustFactorize(t, s)
}

// wantRefactorBits fails unless the factors attached to s are, bit for bit,
// what Refactor writes for values along s's pivots — computed here on a
// separate one-set solver restored from s's factorization — and the solve
// through them agrees the same way.
func wantRefactorBits(t *testing.T, tag string, s *Solver, values []float64) {
	t.Helper()
	m := s.M.Clone()
	copy(m.Values, values)
	ref := NewSolver(m, s.Ordering)
	if err := ref.RestoreFactor(s.FactorState()); err != nil {
		t.Fatal(err)
	}
	mustFactorize(t, ref)
	wantCounts(t, tag+": reference", ref, counts{refactor: 1})
	for _, c := range []struct {
		name      string
		got, want []float64
	}{{"lx", s.lu.lx, ref.lu.lx}, {"ux", s.lu.ux, ref.lu.ux}, {"ud", s.lu.ud, ref.lu.ud}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %s has %d entries, Refactor writes %d", tag, c.name, len(c.got), len(c.want))
		}
		for i := range c.got {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
				t.Fatalf("%s: %s[%d] = %x, Refactor writes %x", tag, c.name, i,
					math.Float64bits(c.got[i]), math.Float64bits(c.want[i]))
			}
		}
	}
	b := make([]float64, s.M.N())
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	x, xr := make([]float64, len(b)), make([]float64, len(b))
	if err := s.Solve(b, x); err != nil {
		t.Fatal(err)
	}
	if err := ref.Solve(b, xr); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(xr[i]) {
			t.Fatalf("%s: x[%d] = %g through the store, %g through Refactor", tag, i, x[i], xr[i])
		}
	}
}

// TestStoreHitIsRefactorBitForBit walks one solver through A, B, A, C, B: the
// returns to A and B are answered from the store, and what the store attaches
// is exactly what a refactorization of those values would have written.
func TestStoreHitIsRefactorBitForBit(t *testing.T) {
	s, base := keyedSolver(t, 83, 8)
	c := counts{full: 1}
	for i, step := range []struct {
		k   int
		hit bool
	}{{0, false}, {1, false}, {0, true}, {2, false}, {1, true}} {
		v := variant(base, step.k)
		request(t, s, v)
		if step.hit {
			c.reused++
		} else {
			c.refactor++
		}
		wantCounts(t, "walk", s, c)
		if s.LastReused != step.hit {
			t.Fatalf("request %d: LastReused=%v", i, s.LastReused)
		}
		wantRefactorBits(t, "walk", s, v)
	}
	if n := len(s.store.sets); n != 3 {
		t.Fatalf("store holds %d sets after A, B, C; want 3", n)
	}
}

// TestStoreEvictsLeastRecentlyUsed: with room for three sets, a fourth
// matrix takes the place of the one touched longest ago, and nothing else.
func TestStoreEvictsLeastRecentlyUsed(t *testing.T) {
	s, base := keyedSolver(t, 89, 3)
	v := func(k int) []float64 { return variant(base, k) }
	c := counts{full: 1}
	for _, k := range []int{0, 1, 2} {
		request(t, s, v(k))
		c.refactor++
	}
	request(t, s, v(0)) // touch A: B is now the oldest
	c.reused++
	request(t, s, v(3)) // D evicts B
	c.refactor++
	wantCounts(t, "fill and evict", s, c)
	if n := len(s.store.sets); n != 3 {
		t.Fatalf("store holds %d sets under a bound of 3", n)
	}
	for _, k := range []int{0, 2, 3} {
		request(t, s, v(k))
		c.reused++
		wantCounts(t, "survivors", s, c)
		wantRefactorBits(t, "survivor", s, v(k))
	}
	request(t, s, v(1)) // B is gone
	c.refactor++
	wantCounts(t, "evicted", s, c)
	wantRefactorBits(t, "evicted, refactored again", s, v(1))
}

// TestStoreCyclicWalkPastTheBound: a cycle one matrix longer than the store
// is the pattern least-recently-used handles worst — every request evicts
// the set the next request wants — and it must still just work: every
// request refactorizes, correctly, and the bound holds.
func TestStoreCyclicWalkPastTheBound(t *testing.T) {
	s, base := keyedSolver(t, 97, 3)
	c := counts{full: 1}
	for lap := 0; lap < 3; lap++ {
		for k := 0; k < 4; k++ {
			v := variant(base, k)
			request(t, s, v)
			c.refactor++
			wantCounts(t, "cycle", s, c)
			wantRefactorBits(t, "cycle", s, v)
			if n := len(s.store.sets); n > 3 {
				t.Fatalf("store grew to %d sets past its bound of 3", n)
			}
		}
	}
}

// TestStoreHashCollisionIsCaught: the hash nominates, the bit-for-bit
// comparison decides. With every matrix hashing alike, a new matrix is still
// a miss and a known one still gets its own factors.
func TestStoreHashCollisionIsCaught(t *testing.T) {
	s, base := keyedSolver(t, 101, 8)
	s.store.hash = func([]float64) uint64 { return 42 }
	c := counts{full: 1}
	for _, k := range []int{0, 1} {
		request(t, s, variant(base, k))
		c.refactor++
	}
	request(t, s, variant(base, 2)) // collides with both, equals neither
	c.refactor++
	wantCounts(t, "colliding newcomer", s, c)
	wantRefactorBits(t, "colliding newcomer", s, variant(base, 2))
	for _, k := range []int{0, 1, 2} {
		request(t, s, variant(base, k))
		c.reused++
		wantCounts(t, "colliding hit", s, c)
		wantRefactorBits(t, "colliding hit", s, variant(base, k))
	}
}
