package transient

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/integrate"
	"wavepipe/internal/newton"
)

// TemplatedAssembly is the Newton iteration's load at a converged iterate x:
// through the stamp template, limiting on, the recovery ladder's node
// conductance dropped, read for its Q and its limiting state. Its limiting
// state is first seeded at x itself, by a full sweep under NoLimit, so that
// no junction is clamped: the load then holds the unlimited junction
// voltages at x. It is the oracle the charge pass that closes a point is held
// to, bit for bit.
func TemplatedAssembly(ws *circuit.Workspace, x []float64, p circuit.LoadParams) {
	p.NodeGmin, p.NoLimit = 0, true
	newton.Load(ws, x, p)
	ws.FlipState()
	p.NoLimit = false
	newton.Load(ws, x, p)
}

// OracleEveryCommit holds every Commit of every engine, for the rest of the
// test, to the templated assembly: on a second workspace of the committing
// solver's system and device list it assembles the point as a Newton
// iteration would and demands the committed charge vector and the solver's
// limiting state SNext in every bit, and no clamped junction in the oracle.
// The returned counter is the number of commits compared. Engines commit from
// several goroutines; each solver gets an oracle workspace of its own.
func OracleEveryCommit(t testing.TB) *atomic.Int64 {
	var (
		mu      sync.Mutex
		oracles = map[*PointSolver]*circuit.Workspace{}
		commits atomic.Int64
	)
	testHookCommit = func(ps *PointSolver) {
		mu.Lock()
		ws := oracles[ps]
		if ws == nil {
			ws = ps.WS.Sys.NewWorkspace()
			ws.SetDevices(ps.WS.Devices())
			oracles[ps] = ws
		}
		mu.Unlock()
		pt := ps.cur.pt
		TemplatedAssembly(ws, pt.X, ps.cur.p)
		commits.Add(1)
		if ws.Limited {
			t.Errorf("t=%g: the oracle clamped a junction at the iterate its state was seeded at", pt.T)
			return
		}
		for _, v := range []struct {
			what      string
			got, want []float64
		}{{"Q", pt.Q, ws.Q}, {"SNext", ps.WS.SNext, ws.SNext}} {
			for i, want := range v.want {
				if got := v.got[i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("t=%g: charge pass %s[%d] = %x, templated assembly %x", pt.T, v.what, i,
						math.Float64bits(got), math.Float64bits(want))
					return
				}
			}
		}
	}
	t.Cleanup(func() { testHookCommit = nil })
	return &commits
}

// NewtonFormForLinear solves every point of a linear system, for the rest of
// the test, in the Newton form the direct solve replaced: from the seed (the
// warm iterate of a resumed point) or the polynomial prediction, one load
// there, the residual F + Alpha0·Q + qhist − B, a factorization (none for a
// warm point: its warm start's serves) and solve, and the full update
// x −= dx, taken as converged. That form iterated on after a step the
// damping clamped, so such a step fails the test instead.
func NewtonFormForLinear(t testing.TB) {
	testHookLinear = func(ps *PointSolver, hist *integrate.History, seed []float64) error {
		s := &ps.cur
		ws, x := ps.WS, s.pt.X
		warm := s.it.Warm
		s.it.Warm = false
		if seed != nil {
			copy(x, seed)
		} else {
			ps.pred.extrapolate(hist, s.p.Time, x, pointX)
		}
		newton.Load(ws, x, s.p)
		if !warm {
			if err := newton.Factorize(ws, s.p.Time); err != nil {
				return err
			}
		}
		ws.Residual(s.p.Alpha0, ps.qhist, ps.r)
		if err := ws.Solver.Solve(ps.r, ps.dx); err != nil {
			return err
		}
		for i, d := range ps.dx {
			if math.Abs(d) > s.opts.Damping {
				t.Errorf("t=%g: the Newton step moves x[%d] by %g, past the %g damping", s.p.Time, i, d, s.opts.Damping)
			}
			x[i] -= d
		}
		s.it.N++
		return nil
	}
	t.Cleanup(func() { testHookLinear = nil })
}
