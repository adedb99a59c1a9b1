package sparse

// Dense Gaussian elimination reference used only by tests to validate the
// sparse kernel, and the column permutations the kernel is tested under.

import (
	"math"
	"math/rand"
)

// columnOrders are the column permutations the kernel tests factorize
// under: the production minimum-fill ordering, the identity, and a random
// permutation drawn from the test's seeded source.
var columnOrders = []struct {
	name string
	perm func(m *Matrix, rng *rand.Rand) []int
}{
	{"min-degree", func(m *Matrix, _ *rand.Rand) []int { return ComputeOrdering(m) }},
	{"identity", func(m *Matrix, _ *rand.Rand) []int { return identity(m.N()) }},
	{"random", func(m *Matrix, rng *rand.Rand) []int { return rng.Perm(m.N()) }},
}

// identity returns the natural ordering 0..n-1.
func identity(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

func denseSolve(a [][]float64, b []float64) ([]float64, bool) {
	n := len(a)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-13 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = m[i][n] / m[i][i]
	}
	return x, true
}
