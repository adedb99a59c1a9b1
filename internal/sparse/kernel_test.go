package sparse

import (
	"errors"
	"fmt"
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
// every remainder of the four-way unrolled loop occurs — under each column
// permutation of columnOrders.
func TestRefactorKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	permRng := rand.New(rand.NewSource(43))
	checked := 0
	for _, ord := range columnOrders {
		for n := 1; n <= 60; n++ {
			m := randUnsymmetric(rng, n, 0.2)
			lu, err := FactorizeWithPerm(m, ord.perm(m, permRng))
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

// rhsVariants returns the right-hand sides the solve oracle runs on: a dense
// one, as the engine's B − qhist is, and one of exact +0 and −0 entries with
// a few values among them, so that the zero skip runs inside blocks.
func rhsVariants(rng *rand.Rand, n int) [][]float64 {
	dense, zeros := make([]float64, n), make([]float64, n)
	for i := range dense {
		dense[i] = rng.NormFloat64()
		switch rng.Intn(4) {
		case 0:
			zeros[i] = rng.NormFloat64()
		case 1:
			zeros[i] = math.Copysign(0, -1)
		}
	}
	return [][]float64{dense, zeros}
}

// sameSolveAsReference solves with lu for every right-hand side and demands
// the solution of the reference sweep bit for bit.
func sameSolveAsReference(t *testing.T, tag string, lu *LU, rhs [][]float64) {
	t.Helper()
	n := lu.n
	want, got, w := make([]float64, n), make([]float64, n), make([]float64, n)
	for v, b := range rhs {
		SolveReference(lu, b, want, w)
		lu.SolveWith(b, got, w)
		bitsEqual(t, fmt.Sprintf("%s rhs %d: x", tag, v), got, want)
	}
}

// TestSolveKernelMatchesReference holds the planned solve to the old column
// sweep on the random patterns of TestRefactorKernelMatchesReference, on the
// factors of the full factorization and of a refactorization.
func TestSolveKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	permRng := rand.New(rand.NewSource(67))
	checked := 0
	for _, ord := range columnOrders {
		for n := 1; n <= 60; n++ {
			m := randUnsymmetric(rng, n, 0.2)
			lu, err := FactorizeWithPerm(m, ord.perm(m, permRng))
			if err != nil {
				continue // singular draw
			}
			checked++
			tag := fmt.Sprintf("%s n=%d", ord.name, n)
			sameSolveAsReference(t, tag+" factorized", lu, rhsVariants(rng, n))
			perturb(rng, m, 0.2)
			if err := lu.Refactor(m); err != nil {
				continue // a degenerate pivot leaves no factors to solve with
			}
			sameSolveAsReference(t, tag+" refactored", lu, rhsVariants(rng, n))
		}
	}
	if checked < 150 {
		t.Fatalf("only %d of 180 random patterns factorized: the comparison is thin", checked)
	}
}

// signedZeros overwrites the off-diagonal entries of A in a third of the
// pivot columns with exact zeros of random sign, so that whole blocks of a
// later column's multipliers are +0 or −0 and the shared rows hold −0.
func signedZeros(rng *rand.Rand, lu *LU, m *Matrix) {
	for k := 0; k < lu.n; k++ {
		if rng.Intn(3) != 0 {
			continue
		}
		j := lu.colPerm[k]
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if m.RowIdx[p] != lu.rowPerm[k] {
				m.Values[p] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
		}
	}
}

// TestBlockKernelsMatchReferenceOnMeshes holds the refactor and the solve to
// the reference sweeps on the meshes of side 4 to 24, whose supernodes are
// wide, so that every block width and remainder occurs. Besides perturbed
// values it feeds exact zeros of either sign into blocks (the zero skip), a
// NaN into A, so that an L entry is not finite and a skipped product would
// be 0·NaN, and an infinite L entry into the solve (0·Inf).
func TestBlockKernelsMatchReferenceOnMeshes(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for side := 4; side <= 24; side++ {
		m := meshMatrix(side, rng)
		n := m.N()
		lu, err := Factorize(m)
		if err != nil {
			t.Fatal(err)
		}
		if side >= 8 && (len(lu.plan.ublk) == 0 || len(lu.plan.lblk) == 0) {
			t.Fatalf("side %d: no block planned", side)
		}
		good := append([]float64(nil), m.Values...)
		for round := 0; round < 4; round++ {
			tag := fmt.Sprintf("side %d round %d", side, round)
			copy(m.Values, good)
			perturb(rng, m, 0.1)
			if round >= 1 {
				signedZeros(rng, lu, m)
			}
			if round == 3 {
				m.Values[rng.Intn(len(m.Values))] = math.NaN()
			}
			sameAsReference(t, tag, lu, m, func() error { return lu.Refactor(m) })
			sameSolveAsReference(t, tag, lu, rhsVariants(rng, n))
		}
		copy(m.Values, good)
		if err := lu.Refactor(m); err != nil {
			t.Fatal(err)
		}
		// An infinite entry in the shared rows of every planned solve block:
		// a column whose multiplier is zero must not meet it.
		for q := 0; q < len(lu.plan.lblk); q += 2 {
			c := int(lu.plan.lblk[q])
			lu.lx[lu.lp[c+1]-1] = math.Inf(1)
		}
		sameSolveAsReference(t, fmt.Sprintf("side %d, infinite L", side), lu, rhsVariants(rng, n))
	}
}

// TestRefactorLeavesWorkspaceClean: a sweep abandoned at a degenerate pivot
// must hand the next one a zeroed workspace, or its fill positions start
// from garbage.
func TestRefactorLeavesWorkspaceClean(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := meshMatrix(8, rng)
	good := append([]float64(nil), m.Values...)
	lu, err := Factorize(m)
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
// factorization must refactor and solve to the same bits.
func TestLUStateRoundTripsThroughInt32Layout(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	m := meshMatrix(12, rng)
	lu, err := Factorize(m)
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
	// The block plan is no part of the snapshot: the restored LU derives it
	// from the pattern and solves like the original, before and after a
	// refactorization.
	if !reflect.DeepEqual(back.plan, lu.plan) {
		t.Fatal("the restored LU planned other blocks")
	}
	fresh, err := RestoreLU(lu.State())
	if err != nil {
		t.Fatal(err)
	}
	x, w := make([]float64, m.N()), make([]float64, m.N())
	for v, b := range rhsVariants(rng, m.N()) {
		want := make([]float64, m.N())
		lu.SolveWith(b, want, w)
		for _, r := range []*LU{fresh, back} {
			r.SolveWith(b, x, w)
			bitsEqual(t, fmt.Sprintf("restored rhs %d: x", v), x, want)
		}
	}

	st.N = math.MaxInt32
	if err := st.Validate(); err == nil {
		t.Fatal("a dimension beyond 32-bit indices validated")
	}
}

func BenchmarkRefactorMesh32(b *testing.B) {
	m := meshMatrix(32, rand.New(rand.NewSource(1)))
	lu, err := Factorize(m)
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
	lu, err := Factorize(m)
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
