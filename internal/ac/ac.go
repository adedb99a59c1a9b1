// Package ac implements small-signal frequency-domain analysis (SPICE
// .AC): the circuit is linearized at its DC operating point into separate
// conductance (G) and capacitance (C) matrices, and the complex system
// (G + jωC)·x = b is solved over a frequency sweep. The complex LU
// factorization is refactorized per frequency on the fixed pattern.
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
	// Gmin is the junction shunt used at the operating point.
	Gmin float64
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

// Frequencies expands the sweep specification into the frequency grid.
func (o Options) Frequencies() ([]float64, error) {
	if o.FStart <= 0 || o.FStop < o.FStart {
		return nil, fmt.Errorf("ac: invalid frequency range [%g, %g]", o.FStart, o.FStop)
	}
	if o.Points <= 0 {
		return nil, fmt.Errorf("ac: Points must be positive")
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
	if opts.Gmin <= 0 {
		opts.Gmin = 1e-12
	}
	if opts.DCOp.GminSteps == 0 {
		opts.DCOp = dcop.DefaultOptions()
	}

	// 1. Operating point.
	ws := sys.NewWorkspace()
	op := make([]float64, sys.N)
	if _, err := dcop.Solve(ws, op, opts.DCOp); err != nil {
		return nil, fmt.Errorf("ac: operating point: %w", err)
	}

	// 2. Split linearization at the OP: G into ws.M, C into ws.MC.
	ws.LoadSplit(op, circuit.LoadParams{Gmin: opts.Gmin, SrcScale: 1})

	// 3. Stimulus vector from the AC source specifications.
	b := make([]complex128, sys.N)
	for _, d := range sys.Circuit.Devices() {
		if src, ok := d.(circuit.ACSource); ok {
			src.StampAC(b)
		}
	}

	// 4. Sweep: factorize once, refactorize per frequency.
	cm := sparse.NewComplexFromPattern(ws.M)
	order := sparse.ComputeOrdering(ws.M, sparse.OrderMinDegree)
	rec := transient.RecordSet(sys, transient.Options{Record: opts.Record})
	res := &Result{Freqs: freqs, Names: rec.Names, Index: rec.Index, OP: op}

	var lu *sparse.ComplexLU
	x := make([]complex128, sys.N)
	for _, f := range freqs {
		omega := 2 * math.Pi * f
		cm.Fill(ws.M, ws.MC, omega)
		if lu == nil {
			lu, err = sparse.FactorizeComplex(cm, order, sparse.DefaultPivotTolerance)
		} else if rerr := lu.Refactor(cm); rerr != nil {
			lu, err = sparse.FactorizeComplex(cm, order, sparse.DefaultPivotTolerance)
		}
		if err != nil {
			return nil, fmt.Errorf("ac: f=%g: %w", f, err)
		}
		lu.Solve(b, x)
		row := make([]complex128, len(res.Index))
		for j, idx := range res.Index {
			row[j] = x[idx]
		}
		res.Data = append(res.Data, row)
	}
	return res, nil
}
