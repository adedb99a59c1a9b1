// Package sparse implements the sparse linear algebra kernel used by the
// circuit engines: compressed sparse column (CSC) matrices with a fixed
// nonzero pattern, fill-reducing orderings, and a KLU-style LU factorization
// with a fast numeric refactorization path for Newton iterations where the
// pattern never changes.
package sparse

import (
	"fmt"
	"sort"
)

// Builder accumulates the nonzero pattern of a matrix before it is compiled
// into a CSC matrix. Circuit stamping reserves each (row, col) slot once at
// setup time and receives a stable slot index used for O(1) value
// accumulation on every Newton iteration.
type Builder struct {
	n     int
	index map[[2]int]int
	rows  []int
	cols  []int
}

// NewBuilder returns a Builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, index: make(map[[2]int]int)}
}

// N returns the matrix dimension.
func (b *Builder) N() int { return b.n }

// Reserve registers the (row, col) slot (0-based) and returns its stable
// slot index. Reserving the same slot twice returns the same index.
// Reserve panics on out-of-range coordinates: that is a programming error in
// the stamping code, not a runtime condition.
func (b *Builder) Reserve(row, col int) int {
	if row < 0 || row >= b.n || col < 0 || col >= b.n {
		panic(fmt.Sprintf("sparse: Reserve(%d,%d) out of range for n=%d", row, col, b.n))
	}
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

// NNZ returns the number of reserved slots so far.
func (b *Builder) NNZ() int { return len(b.rows) }

// Compile freezes the pattern into a Matrix. The Builder may continue to be
// used afterwards, but slots reserved later are not part of the compiled
// matrix.
func (b *Builder) Compile() *Matrix {
	nnz := len(b.rows)
	m := &Matrix{
		n:      b.n,
		ColPtr: make([]int, b.n+1),
		RowIdx: make([]int, nnz),
		Values: make([]float64, nnz),
		slot:   make([]int, nnz),
	}
	// Count entries per column, then prefix-sum into ColPtr.
	for _, c := range b.cols {
		m.ColPtr[c+1]++
	}
	for j := 0; j < b.n; j++ {
		m.ColPtr[j+1] += m.ColPtr[j]
	}
	next := make([]int, b.n)
	copy(next, m.ColPtr[:b.n])
	for k := 0; k < nnz; k++ {
		c := b.cols[k]
		p := next[c]
		next[c]++
		m.RowIdx[p] = b.rows[k]
		m.slot[p] = k
	}
	// Sort rows within each column and keep slot mapping aligned.
	for j := 0; j < b.n; j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		sort.Slice(idx, func(a, bb int) bool { return m.RowIdx[idx[a]] < m.RowIdx[idx[bb]] })
		rows := make([]int, hi-lo)
		slots := make([]int, hi-lo)
		for i, p := range idx {
			rows[i] = m.RowIdx[p]
			slots[i] = m.slot[p]
		}
		copy(m.RowIdx[lo:hi], rows)
		copy(m.slot[lo:hi], slots)
	}
	// slotPos[slotIdx] = position in CSC arrays.
	m.slotPos = make([]int, nnz)
	for p, s := range m.slot {
		m.slotPos[s] = p
	}
	return m
}

// Matrix is an n×n sparse matrix in CSC layout with a frozen pattern.
// Values may be rewritten between factorizations; the pattern may not.
type Matrix struct {
	n      int
	ColPtr []int     // len n+1
	RowIdx []int     // len nnz, sorted within each column
	Values []float64 // len nnz

	slot    []int // CSC position -> builder slot index
	slotPos []int // builder slot index -> CSC position
}

// N returns the matrix dimension.
func (m *Matrix) N() int { return m.n }

// Clone returns a matrix sharing this matrix's (immutable) pattern with a
// fresh, zeroed value array. Worker threads computing different time points
// concurrently each own a clone; slot indices from the original Builder are
// valid on every clone.
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

// Add accumulates v into the slot previously returned by Builder.Reserve.
func (m *Matrix) Add(slot int, v float64) {
	m.Values[m.slotPos[slot]] += v
}

// SlotAt returns the builder slot index stored at (row, col), or -1 if the
// pattern has no entry there. The ensemble engine uses it to replay a
// structurally identical circuit's Reserve calls against a frozen host
// pattern, so variant devices obtain slot ids valid on every clone of that
// pattern. O(log nnz(col)).
func (m *Matrix) SlotAt(row, col int) int {
	if row < 0 || row >= m.n || col < 0 || col >= m.n {
		return -1
	}
	lo, hi := m.ColPtr[col], m.ColPtr[col+1]
	p := lo + sort.SearchInts(m.RowIdx[lo:hi], row)
	if p < hi && m.RowIdx[p] == row {
		return m.slot[p]
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
	slots := make(map[[2]int]int)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d[i][j] != 0 || i == j {
				slots[[2]int{i, j}] = b.Reserve(i, j)
			}
		}
	}
	m := b.Compile()
	for ij, s := range slots {
		m.Add(s, d[ij[0]][ij[1]])
	}
	return m
}

// SymmetrizedAdjacency returns, for each node, the sorted union of off-
// diagonal row indices of column j and the off-diagonal column indices of
// row j — the adjacency structure of A + Aᵀ used by the fill-reducing
// orderings.
func (m *Matrix) SymmetrizedAdjacency() [][]int {
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
