// Package num provides small numeric utilities shared by the simulation
// engines: weighted error norms, divided differences for local-truncation-
// error estimation, and polynomial prediction used by forward pipelining.
package num

import "math"

// Tolerances bundles the relative/absolute tolerances used to weight error
// norms, mirroring SPICE's RELTOL/VNTOL(ABSTOL) options.
type Tolerances struct {
	// RelTol is the relative tolerance applied to the magnitude of each
	// unknown (default 1e-3).
	RelTol float64
	// AbsTol is the absolute floor of the per-unknown error weight
	// (default 1e-6, i.e. 1 µV / 1 µA).
	AbsTol float64
}

// DefaultTolerances returns the SPICE-like defaults used throughout the
// repository.
func DefaultTolerances() Tolerances {
	return Tolerances{RelTol: 1e-3, AbsTol: 1e-6}
}

// Weight returns the error weight for an unknown of magnitude |x|:
// RelTol*|x| + AbsTol. Errors divided by this weight are dimensionless and
// acceptable when at most 1.
func (t Tolerances) Weight(x float64) float64 {
	return t.RelTol*math.Abs(x) + t.AbsTol
}

// WeightedMaxNorm returns max_i |err[i]| / weight(ref[i]). The slices must
// have equal length. An empty input yields 0.
func (t Tolerances) WeightedMaxNorm(err, ref []float64) float64 {
	m := 0.0
	for i, e := range err {
		w := t.Weight(ref[i])
		if v := math.Abs(e) / w; v > m {
			m = v
		}
	}
	return m
}

// NonFiniteIndex returns the index of the first NaN or ±Inf entry of v, or
// -1 when every entry is finite.
func NonFiniteIndex(v []float64) int {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}

// Copy returns a fresh copy of v.
func Copy(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// DividedDifferencesInto computes the Newton divided-difference table for
// the sample points (ts[i], ys[i]) and writes the coefficients c[k] =
// y[t0, t1, ..., tk] into the caller-owned c (len(c) == len(ts)). The times
// must be strictly distinct. The order-k divided difference approximates
// f^(k)(ξ)/k! on the sample interval, which is how the engines estimate the
// high-order derivatives entering the LTE formulas.
func DividedDifferencesInto(ts, ys, c []float64) {
	n := len(ts)
	copy(c, ys)
	for k := 1; k < n; k++ {
		for i := n - 1; i >= k; i-- {
			c[i] = (c[i] - c[i-1]) / (ts[i] - ts[i-k])
		}
	}
}

// PredictVectorAtWith extrapolates each component of the history vectors
// hist (hist[j] is the full solution vector at time ts[j]) to time t,
// writing the result into dst. The number of history vectors sets the
// polynomial order. ys and c are caller-pooled scratch vectors of length
// >= len(ts) (nil allocates fresh ones), for allocation-free prediction in
// the point-solve hot path.
//
// The triangle's denominators ts[i]−ts[i−k] and the Horner factors t−ts[j]
// are the same for every component, so for the stencils the engines use (two
// and three points) they are computed once and the triangle runs straight
// off the history vectors — every subtraction and division of
// DividedDifferencesInto, in its order, hence its bits; longer stencils
// gather each component and run the generic triangle.
func PredictVectorAtWith(ts []float64, hist [][]float64, t float64, dst, ys, c []float64) {
	n := len(ts)
	switch n {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
		return
	case 1:
		copy(dst, hist[0])
		return
	case 2:
		d10, e0 := ts[1]-ts[0], t-ts[0]
		y0, y1 := hist[0][:len(dst)], hist[1][:len(dst)]
		for i := range dst {
			dst[i] = (y1[i]-y0[i])/d10*e0 + y0[i]
		}
		return
	case 3:
		d10, d21, d20 := ts[1]-ts[0], ts[2]-ts[1], ts[2]-ts[0]
		e0, e1 := t-ts[0], t-ts[1]
		y0, y1, y2 := hist[0][:len(dst)], hist[1][:len(dst)], hist[2][:len(dst)]
		for i := range dst {
			c1 := (y1[i] - y0[i]) / d10
			c2 := ((y2[i]-y1[i])/d21 - c1) / d20
			dst[i] = (c2*e1+c1)*e0 + y0[i]
		}
		return
	}
	// Per-component Newton interpolation with shared scratch buffers.
	if len(ys) < n || len(c) < n {
		ys = make([]float64, n)
		c = make([]float64, n)
	}
	ys, c = ys[:n], c[:n]
	for i := range dst {
		for j := 0; j < n; j++ {
			ys[j] = hist[j][i]
		}
		DividedDifferencesInto(ts, ys, c)
		v := c[n-1]
		for j := n - 2; j >= 0; j-- {
			v = v*(t-ts[j]) + c[j]
		}
		dst[i] = v
	}
}

// TopDifferenceNorm returns max_i |scale·y_i[t_0, …, t_{n−1}]| / Weight(ref[i]):
// the weighted max norm of the highest-order divided difference of every
// component of the vectors vs (vs[j] sampled at ts[j]), scaled — with scale =
// (n−1)! the derivative norm the LTE estimate is built on. Like
// PredictVectorAtWith it computes the denominators once and runs the triangle
// off the vectors for the stencils in use (three and four points), bit for
// bit DividedDifferencesInto's top coefficient; other lengths gather into the
// scratch ys, c (length >= len(ts)).
func (t Tolerances) TopDifferenceNorm(ts []float64, vs [][]float64, scale float64, ref, ys, c []float64) float64 {
	n := len(ts)
	norm := 0.0
	switch n {
	case 3:
		d10, d21, d20 := ts[1]-ts[0], ts[2]-ts[1], ts[2]-ts[0]
		y0, y1, y2 := vs[0][:len(ref)], vs[1][:len(ref)], vs[2][:len(ref)]
		for i, r := range ref {
			top := ((y2[i]-y1[i])/d21 - (y1[i]-y0[i])/d10) / d20
			if v := math.Abs(top*scale) / t.Weight(r); v > norm {
				norm = v
			}
		}
	case 4:
		d10, d21, d32 := ts[1]-ts[0], ts[2]-ts[1], ts[3]-ts[2]
		d20, d31, d30 := ts[2]-ts[0], ts[3]-ts[1], ts[3]-ts[0]
		y0, y1, y2, y3 := vs[0][:len(ref)], vs[1][:len(ref)], vs[2][:len(ref)], vs[3][:len(ref)]
		for i, r := range ref {
			c1 := (y1[i] - y0[i]) / d10
			c2 := (y2[i] - y1[i]) / d21
			c3 := (y3[i] - y2[i]) / d32
			top := ((c3-c2)/d31 - (c2-c1)/d20) / d30
			if v := math.Abs(top*scale) / t.Weight(r); v > norm {
				norm = v
			}
		}
	default:
		ys, c = ys[:n], c[:n]
		for i, r := range ref {
			for j := range ys {
				ys[j] = vs[j][i]
			}
			DividedDifferencesInto(ts, ys, c)
			if v := math.Abs(c[n-1]*scale) / t.Weight(r); v > norm {
				norm = v
			}
		}
	}
	return norm
}

// Clamp returns v limited to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}

// EqualWithin reports |a-b| <= tol*(1+max(|a|,|b|)), a scale-aware
// approximate comparison used by tests.
func EqualWithin(a, b, tol float64) bool {
	scale := 1 + math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}
