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
// match the reference sweep bit for bit, or, where the reference meets a
// degenerate pivot, ErrRefactorPivot at the same column.
func sameAsReference(t *testing.T, tag string, lu *LU, m *Matrix, run func() error) {
	t.Helper()
	lx, ux, ud, bad := RefactorReference(lu, m)
	err := run()
	if bad >= 0 {
		var k pivotError
		if !errors.Is(err, ErrRefactorPivot) || !errors.As(err, &k) || int(k) != bad {
			t.Fatalf("%s: reference hit a degenerate pivot at column %d, kernel returned %v", tag, bad, err)
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

// TestRefactorKernelMatchesReference holds Refactor — the op program where
// the plan has no refactor block, the column sweep (int32 indices, scatter
// list, sub-sliced and unrolled loops, fused gather) elsewhere — to the old
// column sweep on random unsymmetric patterns of every small size, so every
// remainder of the four-way unrolled loop occurs, under each column
// permutation of columnOrders. Each pattern is refactored from perturbed
// values, from values with exact zeros of either sign (the zero skip), with
// a NaN or an infinity in A, and with one pivot column zeroed or scaled into
// the subnormals, where the kernel must give up at the reference's column.
func TestRefactorKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	permRng := rand.New(rand.NewSource(43))
	checked, flat := 0, 0
	for _, ord := range columnOrders {
		for n := 1; n <= 60; n++ {
			m := randUnsymmetric(rng, n, 0.2)
			lu, err := FactorizeWithPerm(m, ord.perm(m, permRng))
			if err != nil {
				continue // singular draw
			}
			checked++
			if lu.plan.colOps != nil {
				flat++
			}
			good := append([]float64(nil), m.Values...)
			for round := 0; round < 7; round++ {
				copy(m.Values, good)
				perturb(rng, m, 0.2)
				switch round {
				case 3:
					signedZeros(rng, lu, m)
				case 4:
					m.Values[rng.Intn(len(m.Values))] = math.NaN()
				case 5:
					m.Values[rng.Intn(len(m.Values))] = math.Inf(2*rng.Intn(2) - 1)
				case 6:
					j := lu.colPerm[rng.Intn(n)]
					scale := []float64{0, 1e-310}[rng.Intn(2)]
					for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
						m.Values[p] *= scale
					}
				}
				tag := fmt.Sprintf("%s n=%d round %d", ord.name, n, round)
				sameAsReference(t, tag, lu, m, func() error { return lu.Refactor(m) })
			}
		}
	}
	if checked < 150 {
		t.Fatalf("only %d of 180 random patterns factorized: the comparison is thin", checked)
	}
	if flat < 40 || flat > checked-40 {
		t.Fatalf("%d of %d patterns ran the op program: one of the two kernels is barely held", flat, checked)
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

// TestSolveKernelMatchesReference holds the solve — the forward op program
// where the plan has no solve block, the planned sweep elsewhere — to the old
// column sweep on the random patterns of TestRefactorKernelMatchesReference,
// on the factors of the full factorization and of a refactorization, and
// with an infinite entry in every third L column, which a zero multiplier
// must not meet (0·Inf).
func TestSolveKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	permRng := rand.New(rand.NewSource(67))
	checked, flat := 0, 0
	for _, ord := range columnOrders {
		for n := 1; n <= 60; n++ {
			m := randUnsymmetric(rng, n, 0.2)
			lu, err := FactorizeWithPerm(m, ord.perm(m, permRng))
			if err != nil {
				continue // singular draw
			}
			checked++
			if lu.plan.lcol != nil {
				flat++
			}
			tag := fmt.Sprintf("%s n=%d", ord.name, n)
			sameSolveAsReference(t, tag+" factorized", lu, rhsVariants(rng, n))
			perturb(rng, m, 0.2)
			if err := lu.Refactor(m); err != nil {
				continue // a degenerate pivot leaves no factors to solve with
			}
			sameSolveAsReference(t, tag+" refactored", lu, rhsVariants(rng, n))
			infiniteL(lu, 3)
			sameSolveAsReference(t, tag+" infinite L", lu, rhsVariants(rng, n))
		}
	}
	if checked < 150 {
		t.Fatalf("only %d of 180 random patterns factorized: the comparison is thin", checked)
	}
	if flat < 40 || flat > checked-40 {
		t.Fatalf("%d of %d patterns ran the forward op program: one of the two sweeps is barely held", flat, checked)
	}
}

// infiniteL sets the last entry of every every-th nonempty L column to +Inf.
func infiniteL(lu *LU, every int) {
	for k := 0; k < lu.n; k += every {
		if lu.lp[k+1] > lu.lp[k] {
			lu.lx[lu.lp[k+1]-1] = math.Inf(1)
		}
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
// the reference sweeps on the meshes of side 4 to 24: from side 8 their
// supernodes are wide, so that every block width and remainder occurs, and
// below it the plan has no block and the op programs run. Besides perturbed
// values it feeds exact zeros of either sign into blocks and ops (the zero
// skip), a NaN into A, so that an L entry is not finite and a skipped product
// would be 0·NaN, and an infinite L entry into the solve (0·Inf).
func TestBlockKernelsMatchReferenceOnMeshes(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for side := 4; side <= 24; side++ {
		m := meshMatrix(side, rng)
		n := m.N()
		lu, err := Factorize(m)
		if err != nil {
			t.Fatal(err)
		}
		blocked := len(lu.plan.ublk) > 0 && len(lu.plan.lblk) > 0
		if blocked != (side >= 8) || (lu.plan.colOps != nil) == blocked || (lu.plan.lcol != nil) == blocked {
			t.Fatalf("side %d: blocks planned %v, op programs %v %v", side, blocked, lu.plan.colOps != nil, lu.plan.lcol != nil)
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
		// An infinite entry in the shared rows of every planned solve block,
		// or in every other L column of a program: a column whose multiplier
		// is zero must not meet it.
		for q := 0; q < len(lu.plan.lblk); q += 2 {
			c := int(lu.plan.lblk[q])
			lu.lx[lu.lp[c+1]-1] = math.Inf(1)
		}
		if !blocked {
			infiniteL(lu, 2)
		}
		sameSolveAsReference(t, fmt.Sprintf("side %d, infinite L", side), lu, rhsVariants(rng, n))
	}
}

// TestRefactorProgramCapped: a band matrix with seven rows below the
// diagonal and thirty above has no supernode (each L column shifts by a row)
// and fills its band, so its refactor takes about five products per factor
// slot, over maxOpsPerSlot: the refactor runs the column sweep with no block
// in its plan, and the forward solve still its program. Both stay bit for
// bit the reference sweeps', ±0, NaN and failing pivots included.
func TestRefactorProgramCapped(t *testing.T) {
	const n, below, above = 80, 7, 30
	rng := rand.New(rand.NewSource(73))
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := max(0, i-below); j <= min(n-1, i+above); j++ {
			d[i][j] = rng.Float64() - 0.5
		}
		d[i][i] = float64(below + above)
	}
	m := FromDense(d)
	lu, err := FactorizeWithPerm(m, identity(n))
	if err != nil {
		t.Fatal(err)
	}
	products := 0
	for _, i := range lu.ui {
		products += int(lu.lp[i+1] - lu.lp[i])
	}
	if products <= maxOpsPerSlot*len(lu.fx) {
		t.Fatalf("%d products on %d factor slots: the cap is not reached", products, len(lu.fx))
	}
	if len(lu.plan.ublk) > 0 || lu.plan.colOps != nil || lu.plan.ops != nil || lu.plan.lcol == nil {
		t.Fatalf("refactor blocks %v, refactor program %v, forward program %v; want the column sweep and the forward program",
			lu.plan.ublk, lu.plan.colOps != nil, lu.plan.lcol != nil)
	}
	good := append([]float64(nil), m.Values...)
	for round := 0; round < 5; round++ {
		tag := fmt.Sprintf("round %d", round)
		copy(m.Values, good)
		perturb(rng, m, 0.2)
		switch round {
		case 1:
			signedZeros(rng, lu, m)
		case 2:
			m.Values[rng.Intn(len(m.Values))] = math.NaN()
		case 3:
			j := lu.colPerm[rng.Intn(n)]
			for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
				m.Values[p] = 0
			}
		}
		sameAsReference(t, tag, lu, m, func() error { return lu.Refactor(m) })
		if round != 3 {
			sameSolveAsReference(t, tag, lu, rhsVariants(rng, n))
		}
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
// factorization must have the original's plan — blocks on the side-12 mesh,
// op programs on the side-6 one — and refactor and solve to the same bits.
func TestLUStateRoundTripsThroughInt32Layout(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, side := range []int{12, 6} {
		m := meshMatrix(side, rng)
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
			t.Fatalf("side %d: LUState changed across RestoreLU/State", side)
		}
		// The plan is no part of the snapshot: the restored LU derives it, and
		// its op programs, from the pattern.
		if !reflect.DeepEqual(back.plan, lu.plan) {
			t.Fatalf("side %d: the restored LU planned otherwise", side)
		}
		if program := back.plan.colOps != nil && back.plan.lcol != nil; program != (side == 6) {
			t.Fatalf("side %d: the restored LU runs op programs: %v", side, program)
		}
		fresh, err := RestoreLU(lu.State())
		if err != nil {
			t.Fatal(err)
		}
		perturb(rng, m, 0.1)
		if err := lu.Refactor(m); err != nil {
			t.Fatal(err)
		}
		if err := back.Refactor(m); err != nil { // builds its scatter list here
			t.Fatal(err)
		}
		bitsEqual(t, "restored lx", back.lx, lu.lx)
		bitsEqual(t, "restored ux", back.ux, lu.ux)
		bitsEqual(t, "restored ud", back.ud, lu.ud)
		// The restored LUs solve like the original, before (fresh) and after
		// (back) a refactorization.
		x, w := make([]float64, m.N()), make([]float64, m.N())
		for v, b := range rhsVariants(rng, m.N()) {
			want, old := make([]float64, m.N()), make([]float64, m.N())
			lu.SolveWith(b, want, w)
			back.SolveWith(b, x, w)
			bitsEqual(t, fmt.Sprintf("side %d restored rhs %d: x", side, v), x, want)
			SolveReference(fresh, b, old, w)
			fresh.SolveWith(b, x, w)
			bitsEqual(t, fmt.Sprintf("side %d restored, unrefactored, rhs %d: x", side, v), x, old)
		}
		st.N = math.MaxInt32
		if err := st.Validate(); err == nil {
			t.Fatal("a dimension beyond 32-bit indices validated")
		}
	}
}

// TestProgramRefusesWhatNoEliminationMakes: an op program needs every
// product's target in its column's pattern, a U target not yet read, and the
// matrix inside the factor pattern. RestoreLU refuses a snapshot whose
// pattern breaks the first two, and Refactor a matrix that breaks the last;
// a Solver handed such a matrix falls back to a full factorization.
func TestProgramRefusesWhatNoEliminationMakes(t *testing.T) {
	m := meshMatrix(5, rand.New(rand.NewSource(59)))
	lu, err := Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		corrupt func(st *LUState)
	}{
		// Row k of L(:,k) is the diagonal, no L row.
		{"L row on the diagonal", func(st *LUState) {
			for k := 0; k < st.N; k++ {
				if st.Lp[k+1] > st.Lp[k] {
					st.Li[st.Lp[k]] = k
					return
				}
			}
		}},
		// U(:,k)'s rows descend: the second is updated after it is read.
		{"U rows descending", func(st *LUState) {
			for k := 0; k < st.N; k++ {
				if p := st.Up[k]; st.Up[k+1]-p >= 2 {
					st.Ui[p], st.Ui[p+1] = st.Ui[p+1], st.Ui[p]
					return
				}
			}
		}},
	} {
		st := lu.State()
		c.corrupt(st)
		if err := st.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := RestoreLU(st); !errors.Is(err, errPattern) {
			t.Fatalf("%s: RestoreLU returned %v, want errPattern", c.name, err)
		}
	}

	// A matrix with an entry the factors of a diagonal matrix do not hold.
	b := NewBuilder(3)
	for i := 0; i < 3; i++ {
		b.Reserve(i, i)
	}
	b.Reserve(2, 0)
	full := b.Compile()
	for i := 0; i < 3; i++ {
		full.Add(full.SlotAt(i, i), 2)
	}
	full.Add(full.SlotAt(2, 0), 1)
	diag := FromDense([][]float64{{2, 0, 0}, {0, 2, 0}, {0, 0, 2}})
	d, err := FactorizeWithPerm(diag, identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Refactor(full); err == nil || errors.Is(err, ErrRefactorPivot) {
		t.Fatalf("Refactor of a matrix outside the factor pattern returned %v", err)
	}
	s := NewSolver(full, identity(3))
	s.lu = d
	mustFactorize(t, s)
	if s.FullFactorizations != 1 || s.Refactorizations != 0 {
		t.Fatalf("%d full factorizations, %d refactorizations: the Solver did not fall back", s.FullFactorizations, s.Refactorizations)
	}
	x := make([]float64, 3)
	if err := s.Solve([]float64{2, 2, 3}, x); err != nil {
		t.Fatal(err)
	}
	if x[0] != 1 || x[1] != 1 || x[2] != 1 {
		t.Fatalf("x = %v, want 1 1 1", x)
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
