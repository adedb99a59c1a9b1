package dcop

import (
	"fmt"
	"math"

	"wavepipe/internal/circuit"
	"wavepipe/internal/waveform"
)

// MaxGridPoints bounds the points of an analysis grid built from deck
// input — a DC sweep here, an AC sweep's frequencies in package ac — at the
// number of lines a deck may expand to.
const MaxGridPoints = 1 << 20

// Sweep runs a DC sweep: for each value v in [start, stop] stepped by step,
// it calls set(v) (which should retune a source), solves the operating
// point warm-started from the previous solution, and records the selected
// unknowns. The result's time axis carries the sweep values. Bounds that
// are not finite, and grids of more than MaxGridPoints values, are refused.
func Sweep(ws *circuit.Workspace, set func(float64), start, stop, step float64,
	names []string, record []int, opts Options) (*waveform.Set, error) {
	// NaN or infinite bounds, a zero step and a step away from stop all
	// leave steps outside [0, MaxGridPoints−1]; an infinite step leaves it at
	// 0 but makes the one point start + 0·step NaN.
	steps := (stop - start) / step
	if math.IsInf(step, 0) || !(steps >= 0 && steps+1 <= MaxGridPoints) {
		return nil, fmt.Errorf("dcop: invalid DC sweep %g:%g:%g: not a finite grid of at most %d points",
			start, stop, step, MaxGridPoints)
	}
	x := make([]float64, ws.Sys.N)
	n := int(steps) + 1
	values := make([]float64, 0, n)
	rows := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		v := start + float64(i)*step
		set(v)
		if _, err := Solve(ws, x, opts); err != nil {
			return nil, fmt.Errorf("dcop: sweep point %g: %w", v, err)
		}
		row := make([]float64, ws.Sys.N)
		copy(row, x)
		values = append(values, v)
		rows = append(rows, row)
	}
	// The waveform axis must ascend; descending sweeps are stored reversed.
	w := waveform.NewSet(names, record)
	if step > 0 {
		for i := range values {
			w.Append(values[i], rows[i])
		}
	} else {
		for i := len(values) - 1; i >= 0; i-- {
			w.Append(values[i], rows[i])
		}
	}
	return w, nil
}
