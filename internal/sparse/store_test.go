package sparse

import (
	"math"
	"testing"
)

// keyedSolver returns a mesh solver whose store has room for sets factor
// sets, holding a full factorization of its base values, and those values.
func keyedSolver(t *testing.T, seed int64, sets int) (*Solver, []float64) {
	t.Helper()
	s := meshSolver(seed)
	mustFactorize(t, s)
	lu := s.LU()
	s.StoreBytes = sets * (&factors{values: s.M.Values, fx: lu.fx}).bytes()
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
	ref := NewSolver(m, s.ColPerm)
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

// keyed makes s defer its requests: key k stands for the values family(k),
// which Assemble writes and counts.
func keyed(s *Solver, family func(k float64) []float64) *int {
	assembled := new(int)
	s.Assemble = func(k float64) {
		*assembled++
		copy(s.M.Values, family(k))
	}
	return assembled
}

// deferred asks for a factorization of the matrix key k stands for.
func deferred(t *testing.T, s *Solver, k float64) {
	t.Helper()
	s.Defer(k)
	mustFactorize(t, s)
}

// TestKeyAnswersWithoutValues walks A, B, A, C, B by key: a key the
// store has answered before is answered again without its matrix being
// assembled, hashed or compared, with exactly the factors a refactorization
// of that matrix writes; the matrix stays unassembled until asked for.
func TestKeyAnswersWithoutValues(t *testing.T) {
	s, base := keyedSolver(t, 103, 8)
	v := func(k float64) []float64 { return variant(base, int(k)) }
	assembled := keyed(s, v)
	c := counts{full: 1}
	for _, step := range []struct {
		k   float64
		hit bool
	}{{0, false}, {1, false}, {0, true}, {2, false}, {1, true}} {
		before := *assembled
		deferred(t, s, step.k)
		if step.hit {
			c.reused++
			if *assembled != before {
				t.Fatalf("key %g: answered from the store after assembling its matrix", step.k)
			}
		} else {
			c.refactor++
		}
		wantCounts(t, "walk by key", s, c)
		wantRefactorBits(t, "walk by key", s, v(step.k))
	}
	before := *assembled
	if m := s.Materialize(); *assembled != before+1 || !sameBits(m.Values, v(1)) {
		t.Fatal("Materialize after a keyed hit did not assemble the key's matrix")
	}
}

// TestKeyFallsBackToValues: two keys can stand for one matrix (two
// Alpha0 whose blends round alike). The second key's first request finds the
// set by its values, and from then on by its key too.
func TestKeyFallsBackToValues(t *testing.T) {
	s, base := keyedSolver(t, 107, 8)
	v := func(k float64) []float64 { return variant(base, int(k)%2) }
	assembled := keyed(s, v)
	deferred(t, s, 1)
	deferred(t, s, 3) // variant 1 again, under another key
	wantCounts(t, "second key, same matrix", s, counts{full: 1, refactor: 1, reused: 1})
	if *assembled != 2 {
		t.Fatalf("the second key was answered without its matrix (%d assemblies)", *assembled)
	}
	deferred(t, s, 3)
	wantCounts(t, "second key again", s, counts{full: 1, refactor: 1, reused: 2})
	if *assembled != 2 {
		t.Fatal("the second key's repeat assembled its matrix")
	}
	wantRefactorBits(t, "second key", s, v(3))
}

// TestKeyDiesWithItsSet: a key answers only while the set it names is
// findable. After the set's eviction or a flush (Reorder, RestoreFactor) the
// key's next request assembles and refactorizes, fully after Reorder; after
// Rekey it assembles and is found by its values. Values the caller writes
// carry no key at all.
func TestKeyDiesWithItsSet(t *testing.T) {
	for _, tc := range []struct {
		name string
		kill func(t *testing.T, s *Solver)
		want counts // after the kill and one more request for key 0
	}{
		{"evicted", func(t *testing.T, s *Solver) { deferred(t, s, 1) }, counts{full: 1, refactor: 3}},
		{"Reorder", func(_ *testing.T, s *Solver) { s.Reorder(s.ColPerm) }, counts{full: 2, refactor: 1}},
		{"RestoreFactor", func(t *testing.T, s *Solver) {
			if err := s.RestoreFactor(s.FactorState()); err != nil {
				t.Fatal(err)
			}
		}, counts{full: 1, refactor: 2}},
		{"Rekey", func(_ *testing.T, s *Solver) { s.Rekey() }, counts{full: 1, refactor: 1, reused: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, base := keyedSolver(t, 109, 1)
			v := func(k float64) []float64 { return variant(base, int(k)) }
			assembled := keyed(s, v)
			deferred(t, s, 0)
			tc.kill(t, s)
			before := *assembled
			deferred(t, s, 0)
			wantCounts(t, tc.name, s, tc.want)
			if *assembled != before+1 {
				t.Fatalf("%s: the key was answered without its matrix", tc.name)
			}
			if tc.want.full == 1 {
				wantRefactorBits(t, tc.name, s, v(0))
			}
		})
	}
	// Values written by the caller are keyed by nothing: the store answers
	// them by comparison, and a later request under the old key assembles.
	s, base := keyedSolver(t, 113, 8)
	assembled := keyed(s, func(k float64) []float64 { return variant(base, int(k)) })
	deferred(t, s, 0)
	s.Written()
	copy(s.M.Values, variant(base, 2))
	mustFactorize(t, s)
	wantCounts(t, "written values", s, counts{full: 1, refactor: 2})
	wantRefactorBits(t, "written values", s, variant(base, 2))
	if *assembled != 1 {
		t.Fatalf("values written by the caller were assembled over (%d assemblies)", *assembled)
	}
}
