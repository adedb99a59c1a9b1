// Package sparse implements the sparse linear algebra kernel used by the
// circuit engines: compressed sparse column (CSC) matrices with a fixed
// nonzero pattern, a minimum-fill fill-reducing ordering, and a KLU-style
// LU factorization with a fast numeric refactorization path for Newton
// iterations where the pattern never changes.
package sparse

import (
	"fmt"
	"sort"
)

// Builder accumulates the nonzero pattern of a matrix before it is compiled
// into a CSC matrix. Circuit stamping reserves every (row, col) it will
// write, as often as it writes it; Compile sorts and merges the requests.
// Stamps then address the compiled matrix by position (Matrix.SlotAt), an
// index into its value array.
type Builder struct {
	n     int
	pairs [][2]int // (row, col) in the order reserved, repeats included
}

// NewBuilder returns a Builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// N returns the matrix dimension.
func (b *Builder) N() int { return b.n }

// Reserve registers the (row, col) entry (0-based); reserving it again is
// harmless. Reserve panics on out-of-range coordinates: that is a
// programming error in the stamping code, not a runtime condition.
func (b *Builder) Reserve(row, col int) {
	if row < 0 || row >= b.n || col < 0 || col >= b.n {
		panic(fmt.Sprintf("sparse: Reserve(%d,%d) out of range for n=%d", row, col, b.n))
	}
	b.pairs = append(b.pairs, [2]int{row, col})
}

// Compile freezes the pattern into a Matrix: one counting sort of the
// reserved pairs by row, then one pass over the rows in ascending order that
// deals each pair to its column. Every column's rows come out sorted, and a
// pair equal to the last one dealt to its column is a repeat. Entries
// reserved after Compile are not part of the compiled matrix.
func (b *Builder) Compile() *Matrix {
	n := b.n
	rowPtr := make([]int, n+1)
	for _, rc := range b.pairs {
		rowPtr[rc[0]+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	next := make([]int, n)
	copy(next, rowPtr[:n])
	byRow := make([]int, len(b.pairs)) // columns, bucketed by row
	for _, rc := range b.pairs {
		byRow[next[rc[0]]] = rc[1]
		next[rc[0]]++
	}
	// Count each column's distinct rows; next[c] is the row last counted in
	// column c.
	colPtr := make([]int, n+1)
	for c := range next {
		next[c] = -1
	}
	for i := 0; i < n; i++ {
		for _, c := range byRow[rowPtr[i]:rowPtr[i+1]] {
			if next[c] != i {
				next[c] = i
				colPtr[c+1]++
			}
		}
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	// Deal the rows; next[c] is column c's fill cursor.
	rowIdx := make([]int, colPtr[n])
	copy(next, colPtr[:n])
	for i := 0; i < n; i++ {
		for _, c := range byRow[rowPtr[i]:rowPtr[i+1]] {
			if p := next[c]; p == colPtr[c] || rowIdx[p-1] != i {
				rowIdx[p] = i
				next[c]++
			}
		}
	}
	return &Matrix{n: n, ColPtr: colPtr, RowIdx: rowIdx, Values: make([]float64, len(rowIdx))}
}

// Matrix is an n×n sparse matrix in CSC layout with a frozen pattern.
// Values may be rewritten between factorizations; the pattern may not.
type Matrix struct {
	n      int
	ColPtr []int     // len n+1
	RowIdx []int     // len nnz, sorted within each column
	Values []float64 // len nnz
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.n }

// Clone returns a matrix sharing this matrix's (immutable) pattern with a
// fresh, zeroed value array. Worker threads computing different time points
// concurrently each own a clone; a position valid on the original is valid
// on every clone.
func (m *Matrix) Clone() *Matrix {
	c := *m
	c.Values = make([]float64, len(m.Values))
	return &c
}

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.RowIdx) }

// Zero clears all stored values (the pattern is untouched).
func (m *Matrix) Zero() {
	for i := range m.Values {
		m.Values[i] = 0
	}
}

// Add accumulates v into the entry at position pos of the value array (see
// SlotAt).
func (m *Matrix) Add(pos int, v float64) {
	m.Values[pos] += v
}

// SlotAt returns the position of (row, col) in the value array, or -1 if the
// pattern has no entry there. Circuit Build resolves every device stamp
// through it once, and the ensemble engine resolves a structurally
// identical circuit's stamps against a frozen host pattern the same way, so
// the positions are valid on every clone of that pattern. O(log nnz(col)).
func (m *Matrix) SlotAt(row, col int) int {
	if row < 0 || row >= m.n || col < 0 || col >= m.n {
		return -1
	}
	lo, hi := m.ColPtr[col], m.ColPtr[col+1]
	p := lo + sort.SearchInts(m.RowIdx[lo:hi], row)
	if p < hi && m.RowIdx[p] == row {
		return p
	}
	return -1
}

// At returns the value at (row, col), or 0 if the slot is not part of the
// pattern. Intended for tests and diagnostics; O(log nnz(col)).
func (m *Matrix) At(row, col int) float64 {
	lo, hi := m.ColPtr[col], m.ColPtr[col+1]
	p := lo + sort.SearchInts(m.RowIdx[lo:hi], row)
	if p < hi && m.RowIdx[p] == row {
		return m.Values[p]
	}
	return 0
}

// MulVec computes y = A·x. len(x) and len(y) must equal N.
func (m *Matrix) MulVec(x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < m.n; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			y[m.RowIdx[p]] += m.Values[p] * xj
		}
	}
}

// ToDense expands the matrix into a dense row-major [][]float64 (tests only).
func (m *Matrix) ToDense() [][]float64 {
	d := make([][]float64, m.n)
	for i := range d {
		d[i] = make([]float64, m.n)
	}
	for j := 0; j < m.n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			d[m.RowIdx[p]][j] = m.Values[p]
		}
	}
	return d
}

// FromDense builds a Matrix holding every nonzero of d plus the diagonal
// (reserved even when zero, as MNA stamping does). Intended for tests.
func FromDense(d [][]float64) *Matrix {
	n := len(d)
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d[i][j] != 0 || i == j {
				b.Reserve(i, j)
			}
		}
	}
	m := b.Compile()
	for j := 0; j < n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			m.Add(p, d[m.RowIdx[p]][j])
		}
	}
	return m
}

// SymmetrizedAdjacency returns, for each node, the sorted union of off-
// diagonal row indices of column j and the off-diagonal column indices of
// row j — the adjacency structure of A + Aᵀ used by the fill-reducing
// ordering. Row j is column j of Aᵀ, whose pattern a counting sort gives in
// ascending order, so each list is the merge of two sorted runs; all lists
// share one backing array.
func (m *Matrix) SymmetrizedAdjacency() [][]int {
	n := m.n
	tPtr := make([]int, n+1)
	for _, i := range m.RowIdx {
		tPtr[i+1]++
	}
	for i := 0; i < n; i++ {
		tPtr[i+1] += tPtr[i]
	}
	next := make([]int, n)
	copy(next, tPtr[:n])
	tIdx := make([]int, len(m.RowIdx))
	for j := 0; j < n; j++ {
		for _, i := range m.RowIdx[m.ColPtr[j]:m.ColPtr[j+1]] {
			tIdx[next[i]] = j
			next[i]++
		}
	}
	adj := make([][]int, n)
	slab := make([]int, 0, 2*len(m.RowIdx))
	for j := 0; j < n; j++ {
		a, b := m.RowIdx[m.ColPtr[j]:m.ColPtr[j+1]], tIdx[tPtr[j]:tPtr[j+1]]
		start := len(slab)
		for len(a) > 0 || len(b) > 0 {
			var v int
			switch {
			case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
				v, a = a[0], a[1:]
			case len(a) == 0 || b[0] < a[0]:
				v, b = b[0], b[1:]
			default:
				v, a, b = a[0], a[1:], b[1:]
			}
			if v != j {
				slab = append(slab, v)
			}
		}
		if len(slab) > start {
			adj[j] = slab[start:len(slab):len(slab)]
		}
	}
	return adj
}
