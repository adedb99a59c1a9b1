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
	// U: strict upper part, by column in pivot coordinates, rows ascending.
	up []int32
	ui []int32

	// fx holds the numeric factors in one slice of slots: L's entries, then
	// U's, then U's diagonal. lx, ux and ud are its three parts.
	fx         []float64
	lx, ux, ud []float64

	// aDst is the column sweep's scatter map: CSC position p of the matrix
	// lands at pivot position aDst[p] of the workspace (rowInv[RowIdx[p]],
	// resolved once per pattern instead of per entry per refactorization).
	// Built by the first Refactor; see compile.
	aDst []int32
	// scatter is the op program's scatter list: CSC position p lands in
	// factor slot scatter[p]. fill lists the factor slots no position lands
	// in, which the program zeroes. Built by the first Refactor; see
	// compileScatter.
	scatter, fill []int32
	// plan is the refactor and solve kernels' plan (see blockPlan), derived
	// from the factor pattern when the LU is made, so that a concurrent
	// SolveWith finds it built.
	plan blockPlan

	// pivTol is the threshold the pivots were chosen under:
	// DefaultPivotTolerance, or the one a restored LUState recorded.
	pivTol    float64
	work      []float64 // column sweep workspace (an LU serves one goroutine)
	solveWork []float64 // Solve workspace; separate from work, which Refactor
	// requires to stay zeroed between columns
}

// bind makes fx the backing slice of the factors.
func (f *LU) bind(fx []float64) {
	nl, nu := len(f.li), len(f.ui)
	f.fx = fx
	f.lx, f.ux, f.ud = fx[:nl:nl], fx[nl:nl+nu:nl+nu], fx[nl+nu:]
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
		pivTol:  DefaultPivotTolerance,
	}
	for i := range f.rowInv {
		f.rowInv[i] = -1
	}
	var lx, ux []float64
	ud := make([]float64, n)

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
				x[f.li[c]] -= lx[c] * xr
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
		ud[k] = pv

		// Store U(:, k): pivotal rows by ascending pivot position.
		slices.Sort(uPos)
		for _, pos := range uPos {
			f.ui = append(f.ui, int32(pos))
			ux = append(ux, x[f.rowPerm[pos]])
		}
		f.up[k+1] = int32(len(f.ui))

		// Store L(:, k): remaining candidates divided by the pivot. Row
		// indices stay in original-row space until finalize.
		for _, r := range topo {
			if f.rowInv[r] >= 0 || r == pivotRow {
				continue
			}
			f.li = append(f.li, int32(r))
			lx = append(lx, x[r]/pv)
		}
		f.lp[k+1] = int32(len(f.li))
	}

	// Finalize: translate L row indices from original rows to pivot
	// positions and sort each column ascending (required by Refactor).
	var col []lEntry
	for k := 0; k < n; k++ {
		li, lx := f.li[f.lp[k]:f.lp[k+1]], lx[f.lp[k]:f.lp[k+1]]
		col = col[:0]
		for q, r := range li {
			col = append(col, lEntry{int32(f.rowInv[r]), lx[q]})
		}
		slices.SortFunc(col, func(a, b lEntry) int { return int(a.pos - b.pos) })
		for q, e := range col {
			li[q], lx[q] = e.pos, e.v
		}
	}
	f.bind(slices.Concat(lx, ux, ud))
	if err := f.buildPlan(); err != nil {
		return nil, err
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
// stored pivot has become too small for the new values, an error wrapping
// ErrRefactorPivot is returned and the factorization content is undefined;
// the caller should run a full Factorize, as for any other error (an entry
// of m outside the factor pattern).
//
// A pattern whose plan has a refactor op program runs it (refactorFlat).
// Otherwise column k runs refactorColumn over the stretches of U(:,k)
// between the planned blocks of supernode columns, and lBlock on each block.
// The plan's blocks ascend through ui, so one cursor walks them across all
// columns: a column without a block costs one compare more than a single
// call.
func (f *LU) Refactor(m *Matrix) error {
	if m.N() != f.n {
		return fmt.Errorf("sparse: Refactor dimension mismatch: %d vs %d", m.N(), f.n)
	}
	if f.plan.colOps != nil {
		if err := f.compileScatter(m); err != nil {
			return err
		}
		if k := f.refactorFlat(m); k >= 0 {
			return pivotError(k)
		}
		return nil
	}
	f.compile(m)
	w := f.work // pivot-position space, kept zero between columns
	blk := f.plan.ublk
	next := int32(math.MaxInt32) // position in ui of the next block
	if len(blk) > 0 {
		next = blk[0]
	}
	for k := 0; k < f.n; k++ {
		lo := f.up[k]
		for next < f.up[k+1] {
			f.refactorColumn(m, k, w, lo, next)
			c, b := int(f.ui[next]), blk[1]
			f.lBlock(w, c, int(b), f.ux[next:next+b])
			clear(w[c : c+int(b)]) // read, as every U row's slot is cleared once read
			lo, blk, next = next+b, blk[2:], math.MaxInt32
			if len(blk) > 0 {
				next = blk[0]
			}
		}
		if !f.refactorColumn(m, k, w, lo, f.up[k+1]) {
			return pivotError(k)
		}
	}
	return nil
}

// pivotError is ErrRefactorPivot at the pivot column it holds.
type pivotError int

func (k pivotError) Error() string { return fmt.Sprintf("%v at column %d", ErrRefactorPivot, int(k)) }
func (k pivotError) Unwrap() error { return ErrRefactorPivot }

// degenerate is the refactor's pivot test: the pivot pv must not vanish,
// absolutely or relative to the largest magnitude colMax of the column it
// eliminates.
func degenerate(pv, colMax float64) bool {
	return math.Abs(pv) < tinyPivot || (colMax > 0 && math.Abs(pv) < 1e-14*colMax)
}

// compile builds the column sweep's scatter map and workspace on first use.
// It runs here rather than in FactorizeWithPerm so that a factorization
// restored from a checkpoint (which carries no matrix) gets them the same
// way; every matrix an LU refactors shares one frozen pattern, so one map
// serves them all.
func (f *LU) compile(m *Matrix) {
	if f.aDst != nil {
		return
	}
	f.aDst = make([]int32, len(m.RowIdx))
	for p, r := range m.RowIdx {
		f.aDst[p] = int32(f.rowInv[r])
	}
	f.work = make([]float64, f.n)
}

// compileScatter builds the op program's scatter list and fill slots on
// first use, for the reasons compile gives. An entry of m outside the factor
// pattern has no slot to land in, and is an error.
func (f *LU) compileScatter(m *Matrix) error {
	if f.scatter != nil {
		return nil
	}
	scatter := make([]int32, len(m.RowIdx))
	hit := make([]bool, len(f.fx))
	slot, mark := f.slotMap()
	for k, j := range f.colPerm {
		if err := f.markSlots(k, slot, mark); err != nil {
			return err
		}
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			r := f.rowInv[m.RowIdx[p]]
			if mark[r] != int32(k) {
				return fmt.Errorf("sparse: Refactor: matrix entry (%d, %d) outside the factor pattern", m.RowIdx[p], j)
			}
			scatter[p], hit[slot[r]] = slot[r], true
		}
	}
	// Each position lands in a slot of its own, so the rest are the fill.
	f.fill = make([]int32, 0, len(hit)-len(scatter))
	for s, h := range hit {
		if !h {
			f.fill = append(f.fill, int32(s))
		}
	}
	f.scatter = scatter
	return nil
}

// refactorFlat runs the refactor's op program and returns the column whose
// pivot went degenerate, or -1. The fill slots are zeroed and the scatter
// list writes the matrix into the others; then column k runs its op
// range, every product landing in the slot that holds its entry, and
// divides L(:,k) by the pivot, testing it against the column's scale on the
// way. The ops are the column sweep's products in its order, zero skip
// included, so the factors are those of the sweep bit for bit. It calls
// nothing, so the loops keep their registers.
func (f *LU) refactorFlat(m *Matrix) int {
	fx := f.fx
	for _, s := range f.fill {
		fx[s] = 0
	}
	vals := m.Values[:len(f.scatter)]
	for p, s := range f.scatter {
		fx[s] = vals[p]
	}
	ud := fx[len(f.li)+len(f.ui):]
	ops, colOps, lp := f.plan.ops, f.plan.colOps, f.lp
	colOps, lp = colOps[:len(ud)+1], lp[:len(ud)+1]
	for k := range ud {
		for _, o := range ops[colOps[k]:colOps[k+1]] {
			if xu := fx[o.u]; xu != 0 {
				fx[o.dst] -= fx[o.l] * xu
			}
		}
		pv := ud[k]
		colMax := math.Abs(pv)
		l := fx[lp[k]:lp[k+1]]
		for q, v := range l {
			l[q] = v / pv
			if a := math.Abs(v); a > colMax {
				colMax = a
			}
		}
		if degenerate(pv, colMax) {
			return k
		}
	}
	return -1
}

// refactorColumn runs the stretch [lo, end) of U(:,k) of the refactorization
// from the values in m, using w (pivot-position space, zero on entry to the
// column and on return from it) as scatter workspace: the stretch that
// starts the column scatters A(:, colPerm[k]) into w first, and the stretch
// that ends it gathers L(:,k) and tests the pivot. A false return means the
// stored pivot went degenerate (ErrRefactorPivot), leaving column k's
// storage undefined.
//
// Every loop runs over sub-slices cut once per stretch, so the only bounds
// checks left inside are the indirect ones into w. The arithmetic — which
// products are subtracted from which entry, in which order, and the final
// division by the pivot — is exactly that of the textbook left-looking
// sweep, so the factors are a function of (pattern, pivots, values) alone.
// refactorColumn calls nothing, so the width-1 loop keeps its registers.
func (f *LU) refactorColumn(m *Matrix, k int, w []float64, lo, end int32) bool {
	if lo == f.up[k] {
		j := f.colPerm[k]
		alo, ahi := m.ColPtr[j], m.ColPtr[j+1]
		vals := m.Values[alo:ahi]
		dst := f.aDst[alo:ahi]
		dst = dst[:len(vals)]
		for p, v := range vals {
			w[dst[p]] = v
		}
	}
	// Forward elimination along the stored U pattern (ascending pivot
	// positions form a valid topological order for a lower-triangular
	// dependency structure).
	ui := f.ui[lo:end]
	ux := f.ux[lo:end]
	ux = ux[:len(ui)]
	for p, i := range ui {
		// No later column of L(:,k)'s elimination updates row i: its slot is
		// cleared as its multiplier is read.
		xi := w[i]
		w[i] = 0
		ux[p] = xi
		if xi == 0 {
			continue
		}
		li := f.li[f.lp[i]:f.lp[i+1]]
		lx := f.lx[f.lp[i]:f.lp[i+1]]
		lx = lx[:len(li)]
		// Four updates per trip: the rows of one L column are distinct, so
		// the updates are independent and the result is that of the plain
		// loop; what goes is three quarters of its counter and branch work.
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
	if end != f.up[k+1] {
		return true
	}
	// One pass over the L column gathers the entries, clears their workspace
	// slots and finds the column scale the pivot is tested against; the
	// division by the pivot rides along, since a failed test leaves the
	// column undefined anyway.
	pv := w[k]
	li := f.li[f.lp[k]:f.lp[k+1]]
	lx := f.lx[f.lp[k]:f.lp[k+1]]
	lx = lx[:len(li)]
	colMax := math.Abs(pv)
	for q, r := range li {
		v := w[r]
		w[r] = 0
		lx[q] = v / pv
		if a := math.Abs(v); a > colMax {
			colMax = a
		}
	}
	w[k] = 0
	if degenerate(pv, colMax) {
		return false
	}
	f.ud[k] = pv
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
	if f.plan.lcol != nil {
		f.solveLFlat(w)
	} else {
		f.solveL(w)
	}
	f.solveU(w)
	for k, c := range f.colPerm {
		x[c] = w[k]
	}
}

// solveL is the forward sweep L·y = P·b (unit diagonal) in place in w:
// lColumns over the stretches between the planned blocks of supernode
// columns, lBlock on each block.
func (f *LU) solveL(w []float64) {
	k := 0
	for blk := f.plan.lblk; len(blk) > 0; blk = blk[2:] {
		c, b := int(blk[0]), int(blk[1])
		f.lColumns(w, k, c)
		f.lBlock(w, c, b, w[c:c+b])
		k = c + b
	}
	f.lColumns(w, k, len(w))
}

// solveLFlat is the forward sweep L·y = P·b in place in w by the op
// program: one loop over L, whose entry q subtracts its multiple of its
// column's entry of w, unless that is an exact zero. An entry of column k
// comes after every entry that updates w[k], so w[k] is final when read.
func (f *LU) solveLFlat(w []float64) {
	li, lcol := f.li, f.plan.lcol
	li, lcol = li[:len(f.lx)], lcol[:len(f.lx)]
	for q, l := range f.lx {
		if y := w[lcol[q]]; y != 0 {
			w[li[q]] -= l * y
		}
	}
}

// solveU is the backward sweep U·z = y in place in w, U stored by
// strict-upper columns plus the diagonal. It is a function of its own so
// that the calls solveL makes spill nothing of its loop.
func (f *LU) solveU(w []float64) {
	for k := len(w) - 1; k >= 0; k-- {
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
}

// lColumns runs the forward solve's width-1 columns lo, …, end-1: each
// subtracts its multiple of L(:,k) from w, unless its entry of w is an exact
// zero. It calls nothing, so the loop keeps its registers.
func (f *LU) lColumns(w []float64, lo, end int) {
	for t, yk := range w[lo:end] {
		if yk == 0 {
			continue
		}
		k := lo + t
		li := f.li[f.lp[k]:f.lp[k+1]]
		lx := f.lx[f.lp[k]:f.lp[k+1]]
		lx = lx[:len(li)]
		// Four updates per trip, as in refactorColumn.
		for len(li) >= 4 && len(lx) >= 4 {
			r0, r1, r2, r3 := li[0], li[1], li[2], li[3]
			w[r0] -= lx[0] * yk
			w[r1] -= lx[1] * yk
			w[r2] -= lx[2] * yk
			w[r3] -= lx[3] * yk
			li, lx = li[4:], lx[4:]
		}
		lx = lx[:len(li)]
		for q, r := range li {
			w[r] -= lx[q] * yk
		}
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
