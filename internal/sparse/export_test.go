package sparse

import (
	"math"
	"math/rand"
	"sort"
)

// RefactorReference is the column sweep Refactor ran before the compiled
// kernels replaced it, kept here as the oracle they are held to bit for bit:
// the scatter through rowInv[RowIdx[p]], the elimination loop indexed entry
// by entry, the separate scale scan, scaling and clearing passes. It reads
// f's pattern and pivot sequence and returns its own factors, leaving f
// untouched; bad is the column where Refactor must return ErrRefactorPivot,
// or -1.
func RefactorReference(f *LU, m *Matrix) (lx, ux, ud []float64, bad int) {
	lx = make([]float64, len(f.lx))
	ux = make([]float64, len(f.ux))
	ud = make([]float64, f.n)
	w := make([]float64, f.n)
	for k := 0; k < f.n; k++ {
		j := f.colPerm[k]
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			w[f.rowInv[m.RowIdx[p]]] = m.Values[p]
		}
		for p := f.up[k]; p < f.up[k+1]; p++ {
			i := f.ui[p]
			xi := w[i]
			ux[p] = xi
			if xi == 0 {
				continue
			}
			for q := f.lp[i]; q < f.lp[i+1]; q++ {
				w[f.li[q]] -= lx[q] * xi
			}
		}
		pv := w[k]
		colMax := math.Abs(pv)
		for q := f.lp[k]; q < f.lp[k+1]; q++ {
			if a := math.Abs(w[f.li[q]]); a > colMax {
				colMax = a
			}
		}
		if math.Abs(pv) < tinyPivot || (colMax > 0 && math.Abs(pv) < 1e-14*colMax) {
			return nil, nil, nil, k
		}
		ud[k] = pv
		for q := f.lp[k]; q < f.lp[k+1]; q++ {
			lx[q] = w[f.li[q]] / pv
		}
		for p := f.up[k]; p < f.up[k+1]; p++ {
			w[f.ui[p]] = 0
		}
		w[k] = 0
		for q := f.lp[k]; q < f.lp[k+1]; q++ {
			w[f.li[q]] = 0
		}
	}
	return lx, ux, ud, -1
}

// SolveReference is the column sweep SolveWith ran before the block plan and
// the op program, kept here as the oracle the solve is held to bit for bit: the
// forward sweep over every L column, skipping a zero multiplier, then the
// backward sweep over every U column. It computes x with A·x = b from f's
// factors, using scratch (length N) as workspace.
func SolveReference(f *LU, b, x, scratch []float64) {
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

// Factors exposes the numeric factors (aliased, not copied) to the external
// test package.
func (f *LU) Factors() (lx, ux, ud []float64) { return f.lx, f.ux, f.ud }

// RefBuilder is the map-based Builder that Compile's counting sort replaced,
// kept here as the oracle its pattern is held to: Reserve hands out one slot
// per distinct (row, col) in first-reserved order, and Compile sorts each
// column's rows with its slot ids alongside, then inverts slot → position.
type RefBuilder struct {
	n     int
	index map[[2]int]int
	rows  []int
	cols  []int
}

// NewRefBuilder returns a reference Builder for an n×n matrix.
func NewRefBuilder(n int) *RefBuilder {
	return &RefBuilder{n: n, index: make(map[[2]int]int)}
}

// Reserve registers (row, col) and returns its slot id; a repeat returns the
// first id.
func (b *RefBuilder) Reserve(row, col int) int {
	key := [2]int{row, col}
	if idx, ok := b.index[key]; ok {
		return idx
	}
	idx := len(b.rows)
	b.index[key] = idx
	b.rows = append(b.rows, row)
	b.cols = append(b.cols, col)
	return idx
}

// Compile returns the reference pattern and, for every slot id, its position
// in the value array.
func (b *RefBuilder) Compile() (colPtr, rowIdx, slotPos []int) {
	nnz := len(b.rows)
	colPtr = make([]int, b.n+1)
	rowIdx = make([]int, nnz)
	slot := make([]int, nnz)
	for _, c := range b.cols {
		colPtr[c+1]++
	}
	for j := 0; j < b.n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	next := make([]int, b.n)
	copy(next, colPtr[:b.n])
	for k := 0; k < nnz; k++ {
		c := b.cols[k]
		p := next[c]
		next[c]++
		rowIdx[p] = b.rows[k]
		slot[p] = k
	}
	for j := 0; j < b.n; j++ {
		lo, hi := colPtr[j], colPtr[j+1]
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		sort.Slice(idx, func(a, bb int) bool { return rowIdx[idx[a]] < rowIdx[idx[bb]] })
		rows := make([]int, hi-lo)
		slots := make([]int, hi-lo)
		for i, p := range idx {
			rows[i] = rowIdx[p]
			slots[i] = slot[p]
		}
		copy(rowIdx[lo:hi], rows)
		copy(slot[lo:hi], slots)
	}
	slotPos = make([]int, nnz)
	for p, s := range slot {
		slotPos[s] = p
	}
	return colPtr, rowIdx, slotPos
}

// RefSymmetrizedAdjacency is the per-node set construction of A + Aᵀ that
// the sorted merge replaced, kept as its oracle.
func RefSymmetrizedAdjacency(m *Matrix) [][]int {
	adj := make([][]int, m.n)
	seen := make([]map[int]bool, m.n)
	for i := range seen {
		seen[i] = make(map[int]bool)
	}
	for j := 0; j < m.n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			i := m.RowIdx[p]
			if i == j {
				continue
			}
			if !seen[i][j] {
				seen[i][j] = true
				adj[i] = append(adj[i], j)
			}
			if !seen[j][i] {
				seen[j][i] = true
				adj[j] = append(adj[j], i)
			}
		}
	}
	for i := range adj {
		sort.Ints(adj[i])
	}
	return adj
}

// MinFill and MinDegree expose the production ordering of an adjacency
// structure and the retired one it is held to, to the external test package.
func MinFill(adj [][]int) []int   { return minFill(adj) }
func MinDegree(adj [][]int) []int { return minDegree(adj) }

// MulAdds counts the floating-point operations of one refactorization under
// f's pattern: every stored U entry (i, k) subtracts L(:, i) times it from
// column k, one multiply-add per entry of L(:, i), and every L entry is then
// divided by its pivot, counted as one more.
func (f *LU) MulAdds() int {
	ops := len(f.li)
	for _, i := range f.ui {
		ops += int(f.lp[i+1] - f.lp[i])
	}
	return ops
}

// Programs reports whether f's refactor and forward solve run their op
// programs, as the plan decides for a kernel without a planned block.
func Programs(f *LU) (refactor, solve bool) {
	return f.plan.colOps != nil, f.plan.lcol != nil
}

// SignedZeros exposes signedZeros to the external test package.
func SignedZeros(rng *rand.Rand, f *LU, m *Matrix) { signedZeros(rng, f, m) }
