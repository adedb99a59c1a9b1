package circuit

import (
	"fmt"
	"math"

	"wavepipe/internal/sparse"
)

// TemplateTol bounds how far a load through the stamp template may sit from
// the full sweep (SweepWorkspace): the template adds the same stamps in
// another order, so the two differ by the rounding of a few additions. An
// entry of M or MC is held to it relative to its own magnitude; an entry of F
// or Q relative to the largest entry of its vector, since the currents into a
// node cancel to far below the terms they are summed from.
const TemplateTol = 1e-12

// SweepWorkspace is a workspace whose Load and LoadSplit evaluate every
// device, each in full and in device order, with no stamp template: the
// reference the templated loads are held to.
type SweepWorkspace struct{ *Workspace }

// NewSweepWorkspace returns a sweep workspace of s.
func NewSweepWorkspace(s *System) SweepWorkspace { return SweepWorkspace{s.NewWorkspace()} }

// Load assembles what Workspace.Load assembles, by the full sweep.
func (ws SweepWorkspace) Load(x []float64, p LoadParams) { ws.sweep(x, p, nil) }

// LoadSplit assembles what Workspace.LoadSplit assembles, by the full sweep.
func (ws SweepWorkspace) LoadSplit(x []float64, p LoadParams) {
	if ws.MC == nil {
		ws.MC = ws.M.Clone()
	}
	clear(ws.MC.Values)
	p.Alpha0 = 0
	ws.sweep(x, p, ws.MC)
}

// sweep is beginLoad, every device's Eval, finishLoad, with dQ/dx routed
// into mq when it is not nil.
func (ws SweepWorkspace) sweep(x []float64, p LoadParams, mq *sparse.Matrix) {
	clear(ws.M.Values)
	ws.Solver.Written()
	ctx := &ws.evalCtx
	ws.beginLoad(ctx, x, p, zeroF|zeroQ|zeroB)
	ctx.mq = mq
	for _, d := range ws.Devices() {
		d.Eval(ctx)
	}
	ws.finishLoad(x, p, ctx.Limited)
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
