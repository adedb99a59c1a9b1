package circuit

import (
	"fmt"
	"math"

	"wavepipe/internal/sparse"
)

// NewSweepWorkspace returns a workspace of s that assembles every load by
// sweeping all of its devices: the reference the templated loads are held to.
func NewSweepWorkspace(s *System) *Workspace {
	ws := s.NewWorkspace()
	ws.probed = true
	return ws
}

// CheckStampPositions evaluates every device of s alone twice at iterate x:
// through the positions Build handed it, into a clone of the system
// pattern, and through a pattern compiled from the device's own Reserve
// requests alone. Every (row, col) the device requested must hold the same
// bits both ways, and the system pattern nothing else; the first device
// that differs is reported. Each device gets its Build positions back.
func CheckStampPositions(s *System, x []float64) error {
	for i, p := range s.diagPos {
		if lo, hi := s.pattern.ColPtr[i], s.pattern.ColPtr[i+1]; p < lo || p >= hi || s.pattern.RowIdx[p] != i {
			return fmt.Errorf("diagonal %d at position %d, outside column %d or off its row", i, p, i)
		}
	}
	sysM := s.pattern.Clone()
	for _, d := range s.Circuit.devices {
		evalAlone(s, d, sysM, x)
		b := sparse.NewBuilder(s.N)
		d.Reserve(&Reserver{b: b, touched: make([]bool, s.N)})
		own := b.Compile()
		d.Reserve(&Reserver{lookup: own})
		evalAlone(s, d, own, x)
		d.Reserve(&Reserver{lookup: s.pattern})
		for j := 0; j < s.N; j++ {
			for p := own.ColPtr[j]; p < own.ColPtr[j+1]; p++ {
				i := own.RowIdx[p]
				q := s.pattern.SlotAt(i, j)
				if q < 0 {
					return fmt.Errorf("%s: (%d,%d) is not in the system pattern", d.Name(), i, j)
				}
				if math.Float64bits(sysM.Values[q]) != math.Float64bits(own.Values[p]) {
					return fmt.Errorf("%s: (%d,%d) holds %x through its Build positions, %x through its own requests",
						d.Name(), i, j, math.Float64bits(sysM.Values[q]), math.Float64bits(own.Values[p]))
				}
				sysM.Values[q] = 0
			}
		}
		for q, v := range sysM.Values {
			if v != 0 {
				return fmt.Errorf("%s: stamps %g at position %d, which it did not request", d.Name(), v, q)
			}
		}
	}
	return nil
}

// evalAlone assembles device d alone at x into m, whose values it clears
// first.
func evalAlone(s *System, d Device, m *sparse.Matrix, x []float64) {
	clear(m.Values)
	ctx := EvalCtx{
		X: x, T: 1e-9, Alpha0: 1.7e9, Gmin: 1e-12, SrcScale: 1, NoLimit: true,
		SPrev: make([]float64, s.NumStates), SNext: make([]float64, s.NumStates),
		m: m, F: make([]float64, s.N), Q: make([]float64, s.N), B: make([]float64, s.N),
	}
	d.Eval(&ctx)
}
