// Package ac implements small-signal frequency-domain analysis (SPICE
// .AC): the circuit is linearized at its DC operating point into separate
// conductance (G) and capacitance (C) matrices, and the complex system
// (G + jωC)·(xr + j·xi) = br + j·bi is solved over a frequency sweep as its
// real equivalent [G −ωC; ωC G]·[xr; xi] = [br; bi]. That 2N system goes
// through the same sparse LU as every transient and DC solve: its pattern is
// compiled once, and each frequency rewrites the values and refactorizes.
package ac

import (
	"fmt"
	"math"
	"math/cmplx"

	"wavepipe/internal/circuit"
	"wavepipe/internal/dcop"
	"wavepipe/internal/sparse"
	"wavepipe/internal/transient"
)

// Sweep selects the frequency grid.
type Sweep int

// Sweep kinds, matching SPICE's .AC variants.
const (
	Dec Sweep = iota // logarithmic, Points per decade
	Oct              // logarithmic, Points per octave
	Lin              // linear, Points total
)

// Options configures an AC analysis.
type Options struct {
	Sweep  Sweep
	Points int     // per decade/octave (Dec/Oct) or total (Lin)
	FStart float64 // Hz, > 0
	FStop  float64 // Hz, >= FStart
	// Record lists solution-vector indices to store (nil = all nodes).
	Record []int
	// DCOp configures the operating-point search.
	DCOp dcop.Options
}

// Result holds the complex response at each recorded signal and frequency.
type Result struct {
	Freqs []float64
	Names []string
	Index []int
	Data  [][]complex128 // Data[k][j]: signal j at Freqs[k]
	OP    []float64      // the operating point the linearization used
}

// SignalIndex returns the column of the named signal, or -1.
func (r *Result) SignalIndex(name string) int {
	for j, n := range r.Names {
		if n == name {
			return j
		}
	}
	return -1
}

// Signal returns the complex response column of the named signal.
func (r *Result) Signal(name string) ([]complex128, error) {
	j := r.SignalIndex(name)
	if j < 0 {
		return nil, fmt.Errorf("ac: no signal %q", name)
	}
	out := make([]complex128, len(r.Data))
	for k, row := range r.Data {
		out[k] = row[j]
	}
	return out, nil
}

// MagDB returns 20·log10 |H| of the named signal per frequency.
func (r *Result) MagDB(name string) ([]float64, error) {
	sig, err := r.Signal(name)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(sig))
	for i, v := range sig {
		out[i] = 20 * math.Log10(cmplx.Abs(v))
	}
	return out, nil
}

// PhaseDeg returns the phase of the named signal in degrees per frequency.
func (r *Result) PhaseDeg(name string) ([]float64, error) {
	sig, err := r.Signal(name)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(sig))
	for i, v := range sig {
		out[i] = cmplx.Phase(v) * 180 / math.Pi
	}
	return out, nil
}

// Frequencies expands the sweep specification into the frequency grid. A
// range that is not finite and positive, or a grid of more than
// dcop.MaxGridPoints frequencies, is refused.
func (o Options) Frequencies() ([]float64, error) {
	if !(o.FStart > 0 && o.FStop >= o.FStart && !math.IsInf(o.FStop, 0)) {
		return nil, fmt.Errorf("ac: invalid frequency range [%g, %g]", o.FStart, o.FStop)
	}
	if o.Points <= 0 || o.Points > dcop.MaxGridPoints {
		return nil, fmt.Errorf("ac: Points must be in [1, %d], not %d", dcop.MaxGridPoints, o.Points)
	}
	var out []float64
	switch o.Sweep {
	case Lin:
		if o.Points == 1 || o.FStop == o.FStart {
			return []float64{o.FStart}, nil
		}
		step := (o.FStop - o.FStart) / float64(o.Points-1)
		for i := 0; i < o.Points; i++ {
			out = append(out, o.FStart+float64(i)*step)
		}
	default:
		base := 10.0
		if o.Sweep == Oct {
			base = 2
		}
		if steps := float64(o.Points) * math.Log(o.FStop/o.FStart) / math.Log(base); steps+1 > dcop.MaxGridPoints {
			return nil, fmt.Errorf("ac: sweep from %g to %g Hz at %d points per ×%g interval exceeds %d frequencies",
				o.FStart, o.FStop, o.Points, base, dcop.MaxGridPoints)
		}
		ratio := math.Pow(base, 1/float64(o.Points))
		for f := o.FStart; f < o.FStop*(1+1e-9); f *= ratio {
			out = append(out, f)
		}
		if last := out[len(out)-1]; last < o.FStop*(1-1e-9) {
			out = append(out, o.FStop)
		}
	}
	return out, nil
}

// Run computes the small-signal response of sys.
func Run(sys *circuit.System, opts Options) (*Result, error) {
	freqs, err := opts.Frequencies()
	if err != nil {
		return nil, err
	}

	// 1. Operating point.
	ws := sys.NewWorkspace()
	op := make([]float64, sys.N)
	if _, err := dcop.Solve(ws, op, opts.DCOp); err != nil {
		return nil, fmt.Errorf("ac: operating point: %w", err)
	}

	// 2. Split linearization at the OP: G into ws.M, C into ws.MC.
	ws.LoadSplit(op, circuit.LoadParams{Gmin: circuit.JunctionGmin, SrcScale: 1})

	// 3. Stimulus vector from the AC source specifications.
	b := make([]complex128, sys.N)
	for _, d := range sys.Circuit.Devices() {
		if src, ok := d.(circuit.ACSource); ok {
			src.StampAC(b)
		}
	}

	// 4. Sweep the real-equivalent system: the solver factorizes at the
	// first frequency and refactorizes at the others, falling back to a full
	// factorization when a stored pivot degenerates.
	n := sys.N
	re := newRealEquivalent(ws.M, ws.MC)
	solver := sparse.NewSolver(re.m, sparse.ComputeOrdering(re.m))
	rhs := make([]float64, 2*n)
	for i, v := range b {
		rhs[i], rhs[n+i] = real(v), imag(v)
	}
	rec := transient.RecordSet(sys, transient.Options{Record: opts.Record})
	res := &Result{Freqs: freqs, Names: rec.Names, Index: rec.Index, OP: op}
	x := make([]float64, 2*n)
	for _, f := range freqs {
		re.fill(ws.M, ws.MC, 2*math.Pi*f)
		if err := solver.Factorize(); err != nil {
			return nil, fmt.Errorf("ac: f=%g: %w", f, err)
		}
		solver.LU().Solve(rhs, x)
		row := make([]complex128, len(res.Index))
		for j, idx := range res.Index {
			row[j] = complex(x[idx], x[n+idx])
		}
		res.Data = append(res.Data, row)
	}
	return res, nil
}

// realEquivalent is the 2N real form [G −ωC; ωC G] of G + jωC, for G and
// C on one pattern (LoadSplit's M and MC). Each entry of that pattern lands
// in both diagonal blocks, and in both off-diagonal blocks where C is
// nonzero (C is fixed over the sweep, so its zeros stay zero). The blocks
// are disjoint: every position of the 2N matrix holds one entry of G or ±ωC.
type realEquivalent struct {
	m   *sparse.Matrix
	pos [][4]int // per entry: its positions in the G, G, −ωC, ωC blocks (−1 where C is zero)
}

func newRealEquivalent(g, c *sparse.Matrix) *realEquivalent {
	n := g.N()
	// each visits every block entry k of every pattern entry p, at (i, j).
	each := func(visit func(p, k, i, j int)) {
		for j := 0; j < n; j++ {
			for p := g.ColPtr[j]; p < g.ColPtr[j+1]; p++ {
				i := g.RowIdx[p]
				at := [4][2]int{{i, j}, {n + i, n + j}, {i, n + j}, {n + i, j}}
				for k, rc := range at {
					if k < 2 || c.Values[p] != 0 {
						visit(p, k, rc[0], rc[1])
					}
				}
			}
		}
	}
	b := sparse.NewBuilder(2 * n)
	each(func(_, _, i, j int) { b.Reserve(i, j) })
	re := &realEquivalent{m: b.Compile(), pos: make([][4]int, len(g.RowIdx))}
	for p := range re.pos {
		re.pos[p] = [4]int{-1, -1, -1, -1}
	}
	each(func(p, k, i, j int) { re.pos[p][k] = re.m.SlotAt(i, j) })
	return re
}

// fill writes the values of the system at angular frequency omega.
func (re *realEquivalent) fill(g, c *sparse.Matrix, omega float64) {
	v := re.m.Values
	for p, pos := range re.pos {
		v[pos[0]], v[pos[1]] = g.Values[p], g.Values[p]
		if pos[2] >= 0 {
			w := omega * c.Values[p]
			v[pos[2]], v[pos[3]] = -w, w
		}
	}
}
