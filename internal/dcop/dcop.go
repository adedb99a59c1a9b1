// Package dcop computes the DC operating point of a circuit: plain
// Newton–Raphson first, then gmin stepping, then source stepping — the
// standard SPICE continuation ladder.
package dcop

import (
	"errors"
	"fmt"

	"wavepipe/internal/circuit"
	"wavepipe/internal/faults"
	"wavepipe/internal/newton"
	"wavepipe/internal/sparse"
)

// Options controls the operating-point search.
type Options struct {
	Newton newton.Options
	// Gmin is the junction shunt conductance used everywhere (default 1e-12).
	Gmin float64
	// GminSteps is the number of gmin-stepping decades (default 10).
	GminSteps int
	// SrcSteps is the number of source-stepping increments (default 10).
	SrcSteps int
	// NodeSet maps node unknowns to suggested operating-point voltages
	// (SPICE .NODESET): a first pass clamps those nodes toward the targets
	// through 1 S conductances, then the clamps are released and the point
	// re-solved — steering multistable circuits to the intended state.
	NodeSet map[int]float64
}

// DefaultOptions returns the standard continuation ladder configuration.
func DefaultOptions() Options {
	return Options{Newton: newton.DefaultOptions(), Gmin: 1e-12, GminSteps: 10, SrcSteps: 10}
}

// Stats reports how the operating point was found.
type Stats struct {
	Strategy  string // "direct", "gmin", or "source"
	NRIters   int
	Continues int // continuation stages run
}

// Solve computes the DC operating point into x (which also provides the
// initial guess, typically all zeros).
func Solve(ws *circuit.Workspace, x []float64, opts Options) (Stats, error) {
	if opts.Gmin <= 0 {
		opts.Gmin = 1e-12
	}
	if opts.GminSteps <= 0 {
		opts.GminSteps = 10
	}
	if opts.SrcSteps <= 0 {
		opts.SrcSteps = 10
	}
	n := ws.Sys.N
	r := make([]float64, n)
	dx := make([]float64, n)
	base := circuit.LoadParams{Alpha0: 0, Gmin: opts.Gmin, SrcScale: 1}

	stats := Stats{Strategy: "direct"}
	// 0. .NODESET pre-pass: clamp the suggested nodes, solve, release.
	if len(opts.NodeSet) > 0 {
		clamped := base
		clamped.ClampG = 1
		for idx, v := range opts.NodeSet {
			clamped.ClampIdx = append(clamped.ClampIdx, idx)
			clamped.ClampV = append(clamped.ClampV, v)
			if idx >= 0 && idx < n {
				x[idx] = v
			}
		}
		res, err := newton.Solve(ws, x, clamped, nil, opts.Newton, r, dx)
		stats.NRIters += res.Iters
		if err != nil {
			// The clamp pass is best-effort: fall through to the ladder
			// from whatever iterate it reached.
			stats.Strategy = "nodeset-failed"
		} else {
			stats.Strategy = "nodeset"
		}
	}

	// 1. Direct Newton.
	save := make([]float64, n)
	copy(save, x)
	res, err := newton.Solve(ws, x, base, nil, opts.Newton, r, dx)
	stats.NRIters += res.Iters
	if err == nil {
		return stats, nil
	}

	// 2. Gmin stepping: solve with a large conductance to ground on every
	// node, then relax it geometrically down to zero. The ladder rungs are
	// marked on the fault injector so tests can target a specific strategy.
	defer ws.Faults.SetStage(faults.StageNormal)
	copy(x, save)
	stats.Strategy = "gmin"
	ws.Faults.SetStage(faults.StageGmin)
	gmin := 1e-2
	ok := true
	for i := 0; i <= opts.GminSteps; i++ {
		p := base
		if i < opts.GminSteps {
			p.NodeGmin = gmin
		}
		res, err = newton.Solve(ws, x, p, nil, opts.Newton, r, dx)
		stats.NRIters += res.Iters
		stats.Continues++
		if err != nil {
			ok = false
			break
		}
		gmin /= 10
	}
	if ok {
		return stats, nil
	}

	// 3. Source stepping: ramp all independent sources from 0 to 100 %. Its
	// first steps bias a whole gain chain mid-rail, where under minimum degree
	// the supply node's column carries the chain's gain product until a pivot
	// leaves float64 (a 430-stage EKV chain): it and the run use SourcesFirst.
	copy(x, save)
	stats.Strategy = "source"
	ws.Solver.Reorder(sparse.SourcesFirst(ws.Solver.M, ws.Solver.ColPerm))
	ws.Faults.SetStage(faults.StageSource)
	for i := 1; i <= opts.SrcSteps; i++ {
		p := base
		p.SrcScale = float64(i) / float64(opts.SrcSteps)
		p.NodeGmin = opts.Gmin
		res, err = newton.Solve(ws, x, p, nil, opts.Newton, r, dx)
		stats.NRIters += res.Iters
		stats.Continues++
		if err != nil {
			return stats, &faults.SimError{
				Phase: "dcop", Time: 0, Node: -1,
				Cause: fmt.Errorf("source stepping failed at %.0f%%: %w", p.SrcScale*100, err),
			}
		}
	}
	// Final clean solve at full sources without the node shunt.
	res, err = newton.Solve(ws, x, base, nil, opts.Newton, r, dx)
	stats.NRIters += res.Iters
	if err != nil {
		return stats, &faults.SimError{
			Phase: "dcop", Time: 0, Node: -1,
			Cause: errors.Join(errors.New("all strategies failed"), err),
		}
	}
	return stats, nil
}
