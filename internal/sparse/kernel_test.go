package sparse

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randUnsymmetric builds an n×n matrix with a full diagonal and random
// off-diagonal entries placed independently above and below it, so the
// pattern is structurally unsymmetric and the factors pick up fill.
func randUnsymmetric(rng *rand.Rand, n int, density float64) *Matrix {
	d, _ := randSparseSystem(rng, n, density)
	return FromDense(d)
}

// meshMatrix builds the 5-point Laplacian-like pattern of a side×side power
// grid, the widest factors in the suite.
func meshMatrix(side int, rng *rand.Rand) *Matrix {
	n := side * side
	b := NewBuilder(n)
	at := func(i, j int) int { return i*side + j }
	type stamp struct {
		row, col int
		val      float64
	}
	var stamps []stamp
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			u := at(i, j)
			stamps = append(stamps, stamp{u, u, 4.1 + 0.1*rng.Float64()})
			if i+1 < side {
				v := at(i+1, j)
				g := -1 - 0.05*rng.Float64()
				stamps = append(stamps, stamp{u, v, g}, stamp{v, u, g})
			}
			if j+1 < side {
				v := at(i, j+1)
				g := -1 - 0.05*rng.Float64()
				stamps = append(stamps, stamp{u, v, g}, stamp{v, u, g})
			}
		}
	}
	for _, s := range stamps {
		b.Reserve(s.row, s.col)
	}
	m := b.Compile()
	for _, s := range stamps {
		m.Add(m.SlotAt(s.row, s.col), s.val)
	}
	return m
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %x (%g) != reference %x (%g)",
				name, i, math.Float64bits(got[i]), got[i],
				math.Float64bits(want[i]), want[i])
		}
	}
}

func perturb(rng *rand.Rand, m *Matrix, rel float64) {
	for p := range m.Values {
		m.Values[p] *= 1 + rel*rng.NormFloat64()
	}
}

// sameAsReference refactors lu from m (through run) and demands the factors
// match the reference sweep bit for bit.
func sameAsReference(t *testing.T, tag string, lu *LU, m *Matrix, run func() error) {
	t.Helper()
	lx, ux, ud, ok := RefactorReference(lu, m)
	err := run()
	if !ok {
		if !errors.Is(err, ErrRefactorPivot) {
			t.Fatalf("%s: reference hit a degenerate pivot, kernel returned %v", tag, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	bitsEqual(t, tag+" lx", lu.lx, lx)
	bitsEqual(t, tag+" ux", lu.ux, ux)
	bitsEqual(t, tag+" ud", lu.ud, ud)
}

// TestRefactorKernelMatchesReference holds the compiled kernel (int32
// indices, scatter map, sub-sliced and unrolled loops, fused gather) to the
// old column sweep on random unsymmetric patterns of every small size — so
// every remainder of the four-way unrolled loop occurs — under each ordering.
func TestRefactorKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	checked := 0
	for _, ord := range []Ordering{OrderMinDegree, OrderRCM, OrderNatural} {
		for n := 1; n <= 60; n++ {
			m := randUnsymmetric(rng, n, 0.2)
			lu, err := Factorize(m, ord, DefaultPivotTolerance)
			if err != nil {
				continue // singular draw
			}
			checked++
			for round := 0; round < 3; round++ {
				perturb(rng, m, 0.2)
				sameAsReference(t, "serial", lu, m, func() error { return lu.Refactor(m) })
			}
		}
	}
	if checked < 150 {
		t.Fatalf("only %d of 180 random patterns factorized: the comparison is thin", checked)
	}
}

// TestRefactorLeavesWorkspaceClean: a sweep abandoned at a degenerate pivot
// must hand the next one a zeroed workspace, or its fill positions start
// from garbage.
func TestRefactorLeavesWorkspaceClean(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := meshMatrix(8, rng)
	good := append([]float64(nil), m.Values...)
	lu, err := Factorize(m, OrderMinDegree, DefaultPivotTolerance)
	if err != nil {
		t.Fatal(err)
	}
	// Zero the column eliminated at a late pivot: the sweep fails there,
	// with every earlier column's scatter and fill behind it.
	k := lu.n - 2
	j := lu.colPerm[k]
	for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
		m.Values[p] = 0
	}
	if err := lu.Refactor(m); !errors.Is(err, ErrRefactorPivot) {
		t.Fatalf("err = %v, want ErrRefactorPivot", err)
	}
	for i, v := range lu.work {
		if v != 0 {
			t.Fatalf("work[%d] = %g after a failed sweep", i, v)
		}
	}
	copy(m.Values, good)
	sameAsReference(t, "after failure", lu, m, func() error { return lu.Refactor(m) })
}

// TestLUStateRoundTripsThroughInt32Layout: the snapshot keeps its []int
// arrays (checkpoint format Version 1), the factorization keeps int32 ones;
// the conversion must lose nothing in either direction, and the restored
// factorization must refactor to the same bits.
func TestLUStateRoundTripsThroughInt32Layout(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m := meshMatrix(12, rng)
	lu, err := Factorize(m, OrderMinDegree, DefaultPivotTolerance)
	if err != nil {
		t.Fatal(err)
	}
	st := lu.State()
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	back, err := RestoreLU(st)
	if err != nil {
		t.Fatal(err)
	}
	if st2 := back.State(); !reflect.DeepEqual(st, st2) {
		t.Fatal("LUState changed across RestoreLU/State")
	}
	perturb(rng, m, 0.1)
	if err := lu.Refactor(m); err != nil {
		t.Fatal(err)
	}
	if err := back.Refactor(m); err != nil { // builds its scatter map here
		t.Fatal(err)
	}
	bitsEqual(t, "restored lx", back.lx, lu.lx)
	bitsEqual(t, "restored ux", back.ux, lu.ux)
	bitsEqual(t, "restored ud", back.ud, lu.ud)

	st.N = math.MaxInt32
	if err := st.Validate(); err == nil {
		t.Fatal("a dimension beyond 32-bit indices validated")
	}
}

func BenchmarkRefactorMesh32(b *testing.B) {
	m := meshMatrix(32, rand.New(rand.NewSource(1)))
	lu, err := Factorize(m, OrderMinDegree, DefaultPivotTolerance)
	if err != nil {
		b.Fatal(err)
	}
	if err := lu.Refactor(m); err != nil { // scatter map, workspace
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lu.Refactor(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveMesh32(b *testing.B) {
	m := meshMatrix(32, rand.New(rand.NewSource(1)))
	lu, err := Factorize(m, OrderMinDegree, DefaultPivotTolerance)
	if err != nil {
		b.Fatal(err)
	}
	n := m.N()
	x, rhs, w := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%7) - 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lu.SolveWith(rhs, x, w)
	}
}
