package sparse

import "math"

// RefactorReference is the column sweep Refactor ran before the compiled
// kernel replaced it, kept here as the oracle the kernel is held to bit for
// bit: the scatter through rowInv[RowIdx[p]], the elimination loop indexed
// entry by entry, the separate scale scan, scaling and clearing passes. It
// reads f's pattern and pivot sequence and returns its own factors, leaving
// f untouched; ok is false where Refactor would return ErrRefactorPivot.
func RefactorReference(f *LU, m *Matrix) (lx, ux, ud []float64, ok bool) {
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
			return nil, nil, nil, false
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
	return lx, ux, ud, true
}

// Factors exposes the numeric factors (aliased, not copied) to the external
// test package.
func (f *LU) Factors() (lx, ux, ud []float64) { return f.lx, f.ux, f.ud }
