package transient

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/newton"
)

// BookkeepingLoad is what closed a converged point solve before the charge
// pass did: one more full assembly at the solution, limiting off and the
// recovery ladder's node conductance dropped, read for its Q alone. It is
// kept here as the oracle the charge pass is held to.
func BookkeepingLoad(ws *circuit.Workspace, x []float64, p circuit.LoadParams) {
	p.NodeGmin, p.NoLimit = 0, true
	newton.Load(ws, x, p)
}

// OracleEveryCommit holds every Commit of every engine, for the rest of the
// test, to the bookkeeping load: on a second workspace of the committing
// solver's system and device list it assembles the point in full and demands
// the committed charge vector and the solver's limiting state SNext in every
// bit. The returned counter is the number of commits compared. Engines commit
// from several goroutines; each solver gets an oracle workspace of its own.
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
		BookkeepingLoad(ws, pt.X, ps.cur.p)
		commits.Add(1)
		for _, v := range []struct {
			what      string
			got, want []float64
		}{{"Q", pt.Q, ws.Q}, {"SNext", ps.WS.SNext, ws.SNext}} {
			for i, want := range v.want {
				if got := v.got[i]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("t=%g: charge pass %s[%d] = %x, bookkeeping load %x", pt.T, v.what, i,
						math.Float64bits(got), math.Float64bits(want))
					return
				}
			}
		}
	}
	t.Cleanup(func() { testHookCommit = nil })
	return &commits
}
