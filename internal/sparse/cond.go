package sparse

// SolveTransposeWith solves Aᵀ·x = b using the factorization, with a
// caller-provided scratch vector of length N. With B = P·A·Q = L·U, the
// transpose system factors as Bᵀ = Uᵀ·Lᵀ: a forward solve on the
// column-stored U (which reads as lower-triangular rows of Uᵀ) followed by
// a backward solve on Lᵀ.
func (f *LU) SolveTransposeWith(b, x, scratch []float64) {
	w := scratch
	for k := 0; k < f.n; k++ {
		w[k] = b[f.colPerm[k]]
	}
	// Forward: Uᵀ·u = v.
	for k := 0; k < f.n; k++ {
		s := w[k]
		for p := f.up[k]; p < f.up[k+1]; p++ {
			s -= f.ux[p] * w[f.ui[p]]
		}
		w[k] = s / f.ud[k]
	}
	// Backward: Lᵀ·z = u (unit diagonal).
	for k := f.n - 1; k >= 0; k-- {
		s := w[k]
		for q := f.lp[k]; q < f.lp[k+1]; q++ {
			s -= f.lx[q] * w[f.li[q]]
		}
		w[k] = s
	}
	for k := 0; k < f.n; k++ {
		x[f.rowPerm[k]] = w[k]
	}
}
