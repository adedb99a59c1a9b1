package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderCompileBasics(t *testing.T) {
	b := NewBuilder(3)
	b.Reserve(0, 0)
	b.Reserve(1, 1)
	b.Reserve(0, 1)
	b.Reserve(0, 0)
	m := b.Compile()
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 (a repeated Reserve is one entry)", m.NNZ())
	}
	s00, s11, s01 := m.SlotAt(0, 0), m.SlotAt(1, 1), m.SlotAt(0, 1)
	if s00 < 0 || s11 < 0 || s01 < 0 || m.SlotAt(2, 2) != -1 {
		t.Fatalf("SlotAt = %d %d %d, (2,2) %d", s00, s11, s01, m.SlotAt(2, 2))
	}
	m.Add(s00, 2)
	m.Add(s00, 3)
	m.Add(s11, -1)
	m.Add(s01, 7)
	if got := m.At(0, 0); got != 5 {
		t.Fatalf("At(0,0) = %g, want 5 (accumulated)", got)
	}
	if got := m.At(1, 1); got != -1 {
		t.Fatalf("At(1,1) = %g", got)
	}
	if got := m.At(0, 1); got != 7 {
		t.Fatalf("At(0,1) = %g", got)
	}
	if got := m.At(2, 2); got != 0 {
		t.Fatalf("At(2,2) = %g, want 0 (not in pattern)", got)
	}
	m.Zero()
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("after Zero, At(0,0) = %g", got)
	}
	if m.N() != 3 || m.NNZ() != 3 {
		t.Fatalf("N=%d NNZ=%d", m.N(), m.NNZ())
	}
}

func TestReservePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).Reserve(2, 0)
}

func TestMulVec(t *testing.T) {
	d := [][]float64{
		{2, 0, 1},
		{0, 3, 0},
		{-1, 0, 4},
	}
	m := FromDense(d)
	x := []float64{1, 2, 3}
	y := make([]float64, 3)
	m.MulVec(x, y)
	want := []float64{5, 6, 11}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-14 {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func randSparseSystem(rng *rand.Rand, n int, density float64) ([][]float64, []float64) {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		// Diagonally dominant-ish to stay well conditioned most of the time.
		d[i][i] = 2 + rng.Float64()*5
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				d[i][j] = rng.NormFloat64()
			}
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64() * 10
	}
	return d, b
}

func TestLUSolveAgainstDenseAllOrderings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	permRng := rand.New(rand.NewSource(11))
	for _, ord := range columnOrders {
		for trial := 0; trial < 30; trial++ {
			n := 2 + rng.Intn(25)
			d, b := randSparseSystem(rng, n, 0.25)
			want, ok := denseSolve(d, b)
			if !ok {
				continue
			}
			m := FromDense(d)
			lu, err := FactorizeWithPerm(m, ord.perm(m, permRng))
			if err != nil {
				t.Fatalf("ordering %s trial %d: %v", ord.name, trial, err)
			}
			x := make([]float64, n)
			lu.Solve(b, x)
			for i := range x {
				if math.Abs(x[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
					t.Fatalf("ordering %s trial %d: x[%d] = %g, want %g", ord.name, trial, i, x[i], want[i])
				}
			}
		}
	}
}

// The MNA voltage-source case: structurally zero diagonal entries requiring
// off-diagonal pivoting.
func TestLUZeroDiagonal(t *testing.T) {
	d := [][]float64{
		{1e-3, 0, 1},
		{0, 1e-3, -1},
		{1, -1, 0},
	}
	b := []float64{0, 0, 5}
	m := FromDense(d)
	lu, err := FactorizeWithPerm(m, identity(m.N()))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3)
	lu.Solve(b, x)
	want, _ := denseSolve(d, b)
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestLUSingular(t *testing.T) {
	d := [][]float64{
		{1, 2, 0},
		{2, 4, 0},
		{0, 0, 1},
	}
	m := FromDense(d)
	if _, err := FactorizeWithPerm(m, identity(m.N())); err == nil {
		t.Fatal("expected singular error")
	}
	// All-zero matrix is singular too.
	z := FromDense([][]float64{{0, 0}, {0, 0}})
	if _, err := Factorize(z); err == nil {
		t.Fatal("expected singular error for zero matrix")
	}
}

func TestRefactorMatchesFreshFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 20
	d, b := randSparseSystem(rng, n, 0.2)
	m := FromDense(d)
	lu, err := Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the values on the same pattern, as a Newton iteration does.
	for p := range m.Values {
		if m.Values[p] != 0 {
			m.Values[p] *= 1 + 0.3*rng.NormFloat64()
		}
	}
	if err := lu.Refactor(m); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	lu.Solve(b, x)
	want, ok := denseSolve(m.ToDense(), b)
	if !ok {
		t.Skip("perturbed system singular in reference")
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestRefactorDetectsDegeneratePivot(t *testing.T) {
	d := [][]float64{
		{4, 1},
		{1, 4},
	}
	m := FromDense(d)
	lu, err := FactorizeWithPerm(m, identity(m.N()))
	if err != nil {
		t.Fatal(err)
	}
	// New values make the (0,0) pivot exactly cancel after elimination...
	// simplest: zero out an entire pivot column numerically.
	m.Zero()
	m.Add(0, 0) // slot order follows FromDense reservation; set all to 0 then fix one
	// Rebuild deterministic values: A = [[0,1],[1,0]] with natural order and
	// pivot sequence fixed from the old factorization -> pivot w[0]=0.
	for p := range m.Values {
		m.Values[p] = 0
	}
	setAt(t, m, 0, 1, 1)
	setAt(t, m, 1, 0, 1)
	if err := lu.Refactor(m); err == nil {
		t.Fatal("expected ErrRefactorPivot")
	}
}

// setAt writes v at (r,c) by scanning the CSC pattern (test helper).
func setAt(t *testing.T, m *Matrix, r, c int, v float64) {
	t.Helper()
	for p := m.ColPtr[c]; p < m.ColPtr[c+1]; p++ {
		if m.RowIdx[p] == r {
			m.Values[p] = v
			return
		}
	}
	t.Fatalf("(%d,%d) not in pattern", r, c)
}

func TestSolverRefactorFallback(t *testing.T) {
	d := [][]float64{
		{4, 1},
		{1, 4},
	}
	m := FromDense(d)
	s := NewSolver(m, identity(m.N()))
	if err := s.Factorize(); err != nil {
		t.Fatal(err)
	}
	if s.FullFactorizations != 1 || s.Refactorizations != 0 {
		t.Fatalf("stats after first: %d/%d", s.FullFactorizations, s.Refactorizations)
	}
	// Same pattern, benign values: refactor path.
	setAt(t, m, 0, 0, 5)
	if err := s.Factorize(); err != nil {
		t.Fatal(err)
	}
	if s.Refactorizations != 1 {
		t.Fatalf("expected refactorization, stats %d/%d", s.FullFactorizations, s.Refactorizations)
	}
	// Degenerate stored pivot: automatic fallback to full factorization.
	setAt(t, m, 0, 0, 0)
	setAt(t, m, 1, 1, 0)
	setAt(t, m, 0, 1, 1)
	setAt(t, m, 1, 0, 1)
	if err := s.Factorize(); err != nil {
		t.Fatal(err)
	}
	if s.FullFactorizations != 2 {
		t.Fatalf("expected fallback full factorization, stats %d/%d", s.FullFactorizations, s.Refactorizations)
	}
	b := []float64{2, 3}
	x := make([]float64, 2)
	if err := s.Solve(b, x); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

func TestSolverSolveBeforeFactorize(t *testing.T) {
	s := NewSolver(FromDense([][]float64{{1}}), identity(1))
	if err := s.Solve([]float64{1}, []float64{0}); err == nil {
		t.Fatal("expected error")
	}
}

// Property: for random well-conditioned sparse systems, A·(A⁻¹b) ≈ b.
func TestLUResidualQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		d, b := randSparseSystem(rng, n, 0.15)
		m := FromDense(d)
		lu, err := Factorize(m)
		if err != nil {
			return true // singular random draw: vacuous
		}
		x := make([]float64, n)
		lu.Solve(b, x)
		r := make([]float64, n)
		m.MulVec(x, r)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-6*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeated Refactor on the same pattern with varying values keeps
// solving correctly (the Newton-loop usage pattern).
func TestRefactorLoopQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		d, b := randSparseSystem(rng, n, 0.2)
		m := FromDense(d)
		s := NewSolver(m, ComputeOrdering(m))
		x := make([]float64, n)
		r := make([]float64, n)
		for iter := 0; iter < 5; iter++ {
			for p := range m.Values {
				if m.Values[p] != 0 {
					m.Values[p] *= 1 + 0.1*rng.NormFloat64()
				}
			}
			if err := s.Factorize(); err != nil {
				return true // singular perturbation: vacuous
			}
			if err := s.Solve(b, x); err != nil {
				return false
			}
			m.MulVec(x, r)
			for i := range r {
				if math.Abs(r[i]-b[i]) > 1e-5*(1+math.Abs(b[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderingsArePermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, _ := randSparseSystem(rng, 30, 0.1)
	m := FromDense(d)
	for _, o := range columnOrders {
		perm := o.perm(m, rng)
		if len(perm) != 30 {
			t.Fatalf("%s: len %d", o.name, len(perm))
		}
		seen := make([]bool, 30)
		for _, p := range perm {
			if p < 0 || p >= 30 || seen[p] {
				t.Fatalf("%s: not a permutation: %v", o.name, perm)
			}
			seen[p] = true
		}
	}
}

// Min-degree should reduce fill versus natural ordering on a 2D grid — the
// structure of power-grid circuit matrices.
func TestMinDegreeReducesFillOnGrid(t *testing.T) {
	const side = 12
	n := side * side
	b := NewBuilder(n)
	at := func(i, j int) int { return i*side + j }
	var stamps [][2]int
	var vals []float64
	stamp := func(r, c int, v float64) {
		b.Reserve(r, c)
		stamps = append(stamps, [2]int{r, c})
		vals = append(vals, v)
	}
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			u := at(i, j)
			stamp(u, u, 4.1)
			if i+1 < side {
				v := at(i+1, j)
				stamp(u, v, -1)
				stamp(v, u, -1)
			}
			if j+1 < side {
				v := at(i, j+1)
				stamp(u, v, -1)
				stamp(v, u, -1)
			}
		}
	}
	m := b.Compile()
	for k, rc := range stamps {
		m.Add(m.SlotAt(rc[0], rc[1]), vals[k])
	}
	luMD, err := Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	luNat, err := FactorizeWithPerm(m, identity(n))
	if err != nil {
		t.Fatal(err)
	}
	if luMD.LNNZ()+luMD.UNNZ() >= luNat.LNNZ()+luNat.UNNZ() {
		t.Fatalf("min-degree fill %d not below natural fill %d",
			luMD.LNNZ()+luMD.UNNZ(), luNat.LNNZ()+luNat.UNNZ())
	}
	// And both must still solve correctly.
	rhs := make([]float64, n)
	rhs[0] = 1
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	luMD.Solve(rhs, x1)
	luNat.Solve(rhs, x2)
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-8*(1+math.Abs(x2[i])) {
			t.Fatalf("solutions disagree at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
}
