package sparse

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"wavepipe/internal/faults"
)

// ErrRefactorPivot is returned by Refactor when a pivot chosen during the
// original factorization has become numerically unacceptable for the new
// values. The caller should fall back to a full Factorize.
var ErrRefactorPivot = errors.New("sparse: pivot too small during refactorization")

// DefaultPivotTolerance is the threshold partial-pivoting parameter: the
// diagonal entry is kept as pivot when its magnitude is at least this
// fraction of the largest eligible candidate. Diagonal preference keeps the
// factorization close to the MNA structure and maximizes refactorization
// reuse.
const DefaultPivotTolerance = 0.001

// minimum acceptable pivot magnitude relative to the column scale.
const tinyPivot = 1e-300

// LU holds a sparse LU factorization P·A·Q = L·U where P is the row
// (pivot) permutation, Q the fill-reducing column permutation, L unit lower
// triangular and U upper triangular. The pattern and pivot sequence can be
// reused by Refactor when only the numerical values of A change.
type LU struct {
	n       int
	colPerm []int // position k -> original column
	rowPerm []int // position k -> original row
	rowInv  []int // original row -> position

	// L: strict lower part, by column in pivot coordinates, rows ascending.
	// Indices are int32: the refactor and solve sweeps are bound by index
	// traffic, and half-width indices halve it.
	lp []int32
	li []int32
	lx []float64
	// U: strict upper part, by column in pivot coordinates, rows ascending.
	up []int32
	ui []int32
	ux []float64
	ud []float64 // diagonal of U

	// aDst is the refactor kernel's compiled scatter map: CSC position p of
	// the matrix lands at pivot position aDst[p] of the column workspace
	// (rowInv[RowIdx[p]], resolved once per pattern instead of per entry per
	// refactorization). Built by the first Refactor; see scatterMap.
	aDst []int32

	// pivTol is the threshold the pivots were chosen under:
	// DefaultPivotTolerance, or the one a restored LUState recorded.
	pivTol    float64
	work      []float64 // Refactor workspace (an LU serves one goroutine)
	solveWork []float64 // Solve workspace; separate from work, which Refactor
	// requires to stay zeroed between columns
}

// Factorize computes a fresh LU factorization of m under its minimum-fill
// column ordering and threshold partial pivoting.
func Factorize(m *Matrix) (*LU, error) {
	return FactorizeWithPerm(m, ComputeOrdering(m))
}

// FactorizeWithPerm is Factorize with a caller-supplied column permutation
// (perm[k] = original column eliminated at step k). Callers that factorize
// many matrices sharing one sparsity pattern compute the fill-reducing
// ordering once and pass it here; the permutation is copied, so one slice
// may back any number of concurrent factorizations.
func FactorizeWithPerm(m *Matrix, perm []int) (*LU, error) {
	n := m.N()
	f := &LU{
		n:       n,
		colPerm: append([]int(nil), perm...),
		rowPerm: make([]int, n),
		rowInv:  make([]int, n),
		lp:      make([]int32, n+1),
		up:      make([]int32, n+1),
		ud:      make([]float64, n),
		pivTol:  DefaultPivotTolerance,
	}
	for i := range f.rowInv {
		f.rowInv[i] = -1
	}

	// Workspaces, all indexed by original row.
	x := make([]float64, n)     // numeric values of the current column
	mark := make([]int, n)      // DFS visitation stamp (column index+1)
	topo := make([]int, 0, n)   // reverse postorder pattern of the column
	stack := make([]int, 0, n)  // DFS stack of original rows
	stackP := make([]int, 0, n) // per-stack-node child cursor
	uPos := make([]int, 0, n)   // pivot positions of U(:, k)

	for k := 0; k < n; k++ {
		j := f.colPerm[k]
		topo = topo[:0]

		// Symbolic: depth-first search from each structural nonzero of
		// A(:, j) through the columns of L built so far. Reverse postorder
		// is a topological order for the sparse forward solve.
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			r := m.RowIdx[p]
			if mark[r] == k+1 {
				continue
			}
			stack = append(stack[:0], r)
			stackP = append(stackP[:0], 0)
			mark[r] = k + 1
			for len(stack) > 0 {
				top := len(stack) - 1
				row := stack[top]
				pos := f.rowInv[row]
				advanced := false
				if pos >= 0 {
					for c := int(f.lp[pos]) + stackP[top]; c < int(f.lp[pos+1]); c++ {
						child := int(f.li[c]) // stored as original row until finalize
						stackP[top] = c - int(f.lp[pos]) + 1
						if mark[child] != k+1 {
							mark[child] = k + 1
							stack = append(stack, child)
							stackP = append(stackP, 0)
							advanced = true
							break
						}
					}
				}
				if !advanced && len(stack)-1 == top {
					topo = append(topo, row)
					stack = stack[:top]
					stackP = stackP[:top]
				}
			}
		}

		// Numeric scatter of A(:, j).
		for _, r := range topo {
			x[r] = 0
		}
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			x[m.RowIdx[p]] = m.Values[p]
		}
		// Sparse forward solve in reverse postorder.
		for t := len(topo) - 1; t >= 0; t-- {
			r := topo[t]
			pos := f.rowInv[r]
			if pos < 0 {
				continue
			}
			xr := x[r]
			if xr == 0 {
				continue
			}
			for c := f.lp[pos]; c < f.lp[pos+1]; c++ {
				x[f.li[c]] -= f.lx[c] * xr
			}
		}

		// Partition pattern into U entries (already pivotal rows) and pivot
		// candidates, and choose the pivot.
		uPos = uPos[:0]
		pivotRow := -1
		maxAbs := 0.0
		for _, r := range topo {
			if pos := f.rowInv[r]; pos >= 0 {
				uPos = append(uPos, pos)
				continue
			}
			a := math.Abs(x[r])
			if a > maxAbs {
				maxAbs = a
				pivotRow = r
			}
		}
		if pivotRow == -1 || maxAbs < tinyPivot {
			return nil, fmt.Errorf("%w at column %d (original column %d)", faults.ErrSingular, k, j)
		}
		if f.rowInv[j] < 0 && mark[j] == k+1 {
			if a := math.Abs(x[j]); a >= f.pivTol*maxAbs && a >= tinyPivot {
				pivotRow = j
			}
		}
		f.rowPerm[k] = pivotRow
		f.rowInv[pivotRow] = k
		pv := x[pivotRow]
		f.ud[k] = pv

		// Store U(:, k): pivotal rows by ascending pivot position.
		slices.Sort(uPos)
		for _, pos := range uPos {
			f.ui = append(f.ui, int32(pos))
			f.ux = append(f.ux, x[f.rowPerm[pos]])
		}
		f.up[k+1] = int32(len(f.ui))

		// Store L(:, k): remaining candidates divided by the pivot. Row
		// indices stay in original-row space until finalize.
		for _, r := range topo {
			if f.rowInv[r] >= 0 || r == pivotRow {
				continue
			}
			f.li = append(f.li, int32(r))
			f.lx = append(f.lx, x[r]/pv)
		}
		f.lp[k+1] = int32(len(f.li))
	}

	// Finalize: translate L row indices from original rows to pivot
	// positions and sort each column ascending (required by Refactor).
	var col []lEntry
	for k := 0; k < n; k++ {
		li, lx := f.li[f.lp[k]:f.lp[k+1]], f.lx[f.lp[k]:f.lp[k+1]]
		col = col[:0]
		for q, r := range li {
			col = append(col, lEntry{int32(f.rowInv[r]), lx[q]})
		}
		slices.SortFunc(col, func(a, b lEntry) int { return int(a.pos - b.pos) })
		for q, e := range col {
			li[q], lx[q] = e.pos, e.v
		}
	}
	return f, nil
}

// lEntry is one entry of an L column while FactorizeWithPerm sorts it.
type lEntry struct {
	pos int32
	v   float64
}

// Refactor recomputes the numeric factorization for new values in m,
// reusing the symbolic pattern and pivot sequence of the receiver. It is
// much faster than Factorize (no graph traversal, no pivot search). If a
// stored pivot has become too small for the new values, ErrRefactorPivot is
// returned and the factorization content is undefined; the caller should
// run a full Factorize.
func (f *LU) Refactor(m *Matrix) error {
	if m.N() != f.n {
		return fmt.Errorf("sparse: Refactor dimension mismatch: %d vs %d", m.N(), f.n)
	}
	f.scatterMap(m)
	if f.work == nil {
		f.work = make([]float64, f.n)
	}
	w := f.work // pivot-position space, kept zero between columns
	for k := 0; k < f.n; k++ {
		if !f.refactorColumn(m, k, w) {
			return ErrRefactorPivot
		}
	}
	return nil
}

// scatterMap builds the refactor kernel's scatter map from m's pattern on
// first use. It is built here rather than by FactorizeWithPerm so that a
// factorization restored from a checkpoint (which carries no matrix) gets it
// the same way; every matrix an LU refactors shares one frozen pattern, so
// one map serves them all.
func (f *LU) scatterMap(m *Matrix) {
	if f.aDst != nil {
		return
	}
	f.aDst = make([]int32, len(m.RowIdx))
	for p, r := range m.RowIdx {
		f.aDst[p] = int32(f.rowInv[r])
	}
}

// refactorColumn recomputes column k of the factorization from the values in
// m, using w (pivot-position space, zero on entry and on return) as scatter
// workspace. A false return means the stored pivot went degenerate
// (ErrRefactorPivot), leaving column k's storage undefined.
//
// Every loop runs over sub-slices cut once per column, so the only bounds
// checks left inside are the indirect ones into w. The arithmetic — which
// products are subtracted from which entry, in which order, and the final
// division by the pivot — is exactly that of the textbook left-looking
// sweep, so the factors are a function of (pattern, pivots, values) alone.
func (f *LU) refactorColumn(m *Matrix, k int, w []float64) bool {
	j := f.colPerm[k]
	alo, ahi := m.ColPtr[j], m.ColPtr[j+1]
	vals := m.Values[alo:ahi]
	dst := f.aDst[alo:ahi]
	dst = dst[:len(vals)]
	for p, v := range vals {
		w[dst[p]] = v
	}
	// Forward elimination along the stored U pattern (ascending pivot
	// positions form a valid topological order for a lower-triangular
	// dependency structure).
	ui := f.ui[f.up[k]:f.up[k+1]]
	ux := f.ux[f.up[k]:f.up[k+1]]
	ux = ux[:len(ui)]
	for p, i := range ui {
		xi := w[i]
		ux[p] = xi
		if xi == 0 {
			continue
		}
		li := f.li[f.lp[i]:f.lp[i+1]]
		lx := f.lx[f.lp[i]:f.lp[i+1]]
		lx = lx[:len(li)]
		// Four updates per trip: the rows of one L column are distinct, so
		// the updates are independent and the result is that of the plain
		// loop; what goes is three quarters of its counter and branch work,
		// a fifth of a refactorization's time on the mesh patterns.
		for len(li) >= 4 && len(lx) >= 4 {
			r0, r1, r2, r3 := li[0], li[1], li[2], li[3]
			w[r0] -= lx[0] * xi
			w[r1] -= lx[1] * xi
			w[r2] -= lx[2] * xi
			w[r3] -= lx[3] * xi
			li, lx = li[4:], lx[4:]
		}
		lx = lx[:len(li)]
		for q, r := range li {
			w[r] -= lx[q] * xi
		}
	}
	pv := w[k]
	// One pass over the L column gathers the unscaled entries, clears their
	// workspace slots and finds the column scale the pivot is tested against.
	li := f.li[f.lp[k]:f.lp[k+1]]
	lx := f.lx[f.lp[k]:f.lp[k+1]]
	lx = lx[:len(li)]
	colMax := math.Abs(pv)
	for q, r := range li {
		v := w[r]
		w[r] = 0
		lx[q] = v
		if a := math.Abs(v); a > colMax {
			colMax = a
		}
	}
	for _, i := range ui {
		w[i] = 0
	}
	w[k] = 0
	// Scale test: the pivot must not be degenerate relative to the column
	// it eliminates.
	if math.Abs(pv) < tinyPivot || (colMax > 0 && math.Abs(pv) < 1e-14*colMax) {
		return false
	}
	f.ud[k] = pv
	for q := range lx {
		lx[q] /= pv
	}
	return true
}

// Solve computes x with A·x = b using the factorization. b and x may alias.
// The scratch vector is pooled on the receiver, so like Refactor this is
// single-goroutine per LU; concurrent solves must use SolveWith.
func (f *LU) Solve(b, x []float64) {
	if f.solveWork == nil {
		f.solveWork = make([]float64, f.n)
	}
	f.SolveWith(b, x, f.solveWork)
}

// SolveWith is Solve with a caller-provided scratch vector of length N,
// allowing allocation-free repeated solves.
func (f *LU) SolveWith(b, x, scratch []float64) {
	w := scratch[:f.n]
	for k, r := range f.rowPerm {
		w[k] = b[r]
	}
	// Forward: L·y = P·b (unit diagonal).
	for k, yk := range w {
		if yk == 0 {
			continue
		}
		li := f.li[f.lp[k]:f.lp[k+1]]
		lx := f.lx[f.lp[k]:f.lp[k+1]]
		lx = lx[:len(li)]
		for q, r := range li {
			w[r] -= lx[q] * yk
		}
	}
	// Backward: U·z = y, U stored by strict-upper columns + diagonal.
	for k := f.n - 1; k >= 0; k-- {
		zk := w[k] / f.ud[k]
		w[k] = zk
		if zk == 0 {
			continue
		}
		ui := f.ui[f.up[k]:f.up[k+1]]
		ux := f.ux[f.up[k]:f.up[k+1]]
		ux = ux[:len(ui)]
		for p, i := range ui {
			w[i] -= ux[p] * zk
		}
	}
	for k, c := range f.colPerm {
		x[c] = w[k]
	}
}

// LNNZ returns the number of stored entries of L (excluding the unit
// diagonal).
func (f *LU) LNNZ() int { return len(f.li) }

// UNNZ returns the number of stored entries of U (including the diagonal).
func (f *LU) UNNZ() int { return len(f.ui) + f.n }

// Solver bundles a matrix with its factorization and transparently chooses
// between the fast Refactor path and a full Factorize. It is the interface
// the Newton loops use: rewrite the matrix values, call Factorize, call
// Solve. A Solver is not safe for concurrent use; each worker thread owns
// its own.
type Solver struct {
	M *Matrix
	// ColPerm is the column ordering of every full factorization. Systems
	// that hand out many solvers over one sparsity pattern share a single
	// ordering this way (the ordering depends only on the pattern).
	// Read-only here.
	ColPerm []int

	// StoreBytes bounds a keyed store of earlier Refactor outputs (see
	// factorStore): a request whose key a stored set answered before, or
	// whose values are bit-for-bit those of a stored set, is answered by
	// attaching that set instead of refactorizing; a bound below one set's
	// size keeps the most recent refactorization only. 0 keeps no set and no
	// copy of the values: every request after the first refactorizes.
	StoreBytes int

	// Assemble writes into M the matrix of a deferred request (see Defer).
	// The owner of a solver sets it once before its first Defer.
	Assemble func(key float64)

	lu      *LU
	scratch []float64
	// store holds the numeric factorizations a request may be answered from,
	// the one attached to lu first among them.
	store factorStore
	// key is the key of the request in M while keyed; stale says that M does
	// not hold its values yet.
	key          float64
	keyed, stale bool

	// Stats.
	FullFactorizations int
	Refactorizations   int
	// ReusedFactorizations counts Factorize calls handed the very values a
	// factorization in the keyed store was refactored from and answered with
	// it: the result is exact. LastReused reports the outcome for the trace.
	// Every request ends in exactly one of the three counters.
	ReusedFactorizations int
	LastReused           bool
}

// NewSolver returns a Solver for m under the column ordering perm (see
// ComputeOrdering and SharedOrdering).
func NewSolver(m *Matrix, perm []int) *Solver {
	return &Solver{M: m, ColPerm: perm}
}

// Defer stands for writing into M a matrix that is a function of key alone,
// the same one every time the key's bits repeat (a linear circuit's
// J_F + Alpha0·J_Q at Alpha0 = key): Assemble writes it only when it is
// needed — by a Factorize the store cannot answer from the key, or by
// Materialize. M belongs to the solver until the caller's next write, which
// it announces with Written.
func (s *Solver) Defer(key float64) {
	s.key, s.keyed, s.stale = key, true, true
}

// Written announces that the caller wrote M's values itself: the next
// request is keyed by its values alone.
func (s *Solver) Written() {
	s.keyed, s.stale = false, false
}

// Materialize writes a deferred request's matrix into M and returns M.
func (s *Solver) Materialize() *Matrix {
	if s.stale {
		s.Assemble(s.key)
		s.stale = false
	}
	return s.M
}

// Rekey is for an owner whose keys stop naming the matrices they named (a
// workspace given other devices): a deferred request is assembled under the
// old meaning, and every key is forgotten. The stored sets stay findable by
// their values.
func (s *Solver) Rekey() {
	s.Materialize()
	s.keyed = false
	s.store.unalias()
}

// Factorize (re)factorizes the current values of the matrix, preferring the
// numeric-only refactorization path. Under a keyed store (StoreBytes > 0),
// a deferred request whose key a stored set answered before, or values
// bit-identical to the ones a stored set was refactored from, avoid even
// that: the call attaches the stored set, an exact result (LastReused). The
// first way assembles nothing and looks at no value.
func (s *Solver) Factorize() error {
	s.LastReused = false
	st := &s.store
	keyed := s.keyed && s.StoreBytes > 0
	if keyed && s.lu != nil {
		if f := st.byAlias[math.Float64bits(s.key)]; f != nil {
			s.reuse(f)
			return nil
		}
	}
	s.Materialize()
	if s.lu != nil {
		var h uint64
		if s.StoreBytes > 0 {
			h = st.key(s.M.Values)
			if f := st.find(h, s.M.Values); f != nil {
				s.reuse(f)
				if keyed {
					st.alias(f, math.Float64bits(s.key))
				}
				return nil
			}
		}
		st.claim(s.lu, s.StoreBytes)
		if err := s.lu.Refactor(s.M); err == nil {
			s.Refactorizations++
			if s.StoreBytes > 0 {
				st.admit(h, s.M.Values)
				if keyed {
					st.alias(st.cur, math.Float64bits(s.key))
				}
			}
			return nil
		}
		// The failed sweep left the claimed set undefined, and the pivots the
		// others were computed along are about to be replaced: nothing may be
		// answered from any of them, even if the full factorization below
		// fails too and the LU stays in hand.
		st.flush()
	}
	// The store is empty here: a solver's first factorization, RestoreFactor
	// and a failed refactorization all leave it so.
	lu, err := FactorizeWithPerm(s.M, s.ColPerm)
	if err != nil {
		return err
	}
	s.lu = lu
	s.FullFactorizations++
	return nil
}

// reuse answers a request with the stored set f.
func (s *Solver) reuse(f *factors) {
	s.store.attach(s.lu, f)
	s.ReusedFactorizations++
	s.LastReused = true
}

// Reorder makes perm the column ordering of every later full factorization
// and drops the LU in hand, so the next Factorize is one.
func (s *Solver) Reorder(perm []int) {
	s.ColPerm, s.lu = perm, nil
	s.store.flush()
}

// Solve computes x with A·x = b for the most recent factorization.
func (s *Solver) Solve(b, x []float64) error {
	if s.lu == nil {
		return errors.New("sparse: Solve called before Factorize")
	}
	if s.scratch == nil {
		s.scratch = make([]float64, s.M.N())
	}
	s.lu.SolveWith(b, x, s.scratch)
	return nil
}

// LU returns the current factorization (nil before the first Factorize).
func (s *Solver) LU() *LU { return s.lu }
