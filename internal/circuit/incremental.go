// Incremental MNA assembly: the linear-stamp template.
//
// Every Newton iteration at every (speculative or committed) time point
// normally re-evaluates all devices through per-device Eval interface calls.
// Linear devices (R, C, L, sources, controlled sources) contribute Jacobian
// stamps that are constant and F/Q vectors that are exactly J_F·x and J_Q·x.
// For a fixed Alpha0 their Jacobian contribution is a constant template that
// is copied instead of re-stamped, and their F and Q are two compact
// matrix-vector products. Nonlinear devices are evaluated plainly on top.
//
// The engine has two halves. The per-System incBasis (built once, immutable,
// shared by all workspaces) holds the exact linear Jacobian split. The
// per-Workspace incState holds the mutable template LRU, so concurrent
// WavePipe points never share it.
//
// What stays on the plain path:
//   - NoLimit loads and source-stepping loads (the charge pass that closes a
//     point is not a Load at all and touches neither template nor counters).
package circuit

import (
	"math"

	"wavepipe/internal/sparse"
)

// LinearStamper marks a device whose F and Q stamps are exactly linear in
// the iterate (F = J_F·x, Q = J_Q·x with constant Jacobians) and whose only
// time dependence, if any, lives in the source vector B. The returned flag
// reports whether the device stamps B at all: such devices (independent
// sources) are re-evaluated every load for their B contribution, while their
// constant Jacobian lives in the cached template.
//
// Implementing this interface is a correctness promise, not a hint: the
// finite-difference Jacobian tests in internal/device are the safety net.
type LinearStamper interface {
	LinearStamps() (timeVaryingB bool)
}

// linearDevice reports whether d keeps that promise with no limiting state
// of its own: the devices the linear template absorbs, and — when every
// device of a circuit is one — what makes the System Linear.
func linearDevice(d Device) bool {
	_, ok := d.(LinearStamper)
	return ok && d.States() == 0
}

// templateWays is the associativity of the per-workspace linear template
// LRU. Variable-step runs revisit a handful of step sizes (and therefore
// Alpha0 values); four ways cover the trap/Gear alternation plus the halved
// and doubled neighbors without thrashing.
const templateWays = 4

// incBasis is the immutable Build-time half of the incremental engine,
// shared by every workspace of a System.
type incBasis struct {
	// jf and jq hold the exact linear dF/dx and dQ/dx: the split-assembly
	// probe routes AddJ into jf and AddJQ raw into jq, so the separation has
	// no finite-difference error. The Alpha0-blended template jf + α0·jq is
	// cached per workspace.
	jf, jq *sparse.Matrix

	// Compact forms of jf/jq: the full pattern is dominated by nonlinear
	// slots that are zero in both, so the template blend and the linear
	// F/Q rebuild iterate only the entries that exist. linPos/linJF/linJQ
	// drive the blend (tv[linPos[t]] = linJF[t] + α0·linJQ[t]); the
	// (row, col, value) triples drive the two matrix-vector products.
	linPos       []int
	linJF, linJQ []float64
	jfR, jfC     []int
	jfV          []float64
	jqR, jqC     []int
	jqV          []float64

	// sources lists linear devices with time-varying B (independent
	// sources); they are re-evaluated each load with their J/F/Q writes
	// routed into dump buffers so only B lands in the workspace.
	sources []int

	// nonlinear lists the device indices evaluated each load.
	nonlinear []int
}

// incrementalBasis returns the System's incremental-assembly basis, building
// it on first use. Returns nil when the circuit does not support the engine
// (a device probe panicked). Safe for concurrent callers.
func (s *System) incrementalBasis() *incBasis {
	s.incOnce.Do(func() { s.inc = buildIncBasis(s) })
	return s.inc
}

// buildIncBasis probes the compiled circuit once and constructs the shared
// basis. Like the charge probe it bails out (returning nil) if any device
// panics during the probe, which simply disables the incremental engine.
func buildIncBasis(s *System) (basis *incBasis) {
	defer func() {
		if recover() != nil {
			basis = nil
		}
	}()
	devices := s.Circuit.devices
	if len(devices) == 0 {
		return nil
	}
	b := &incBasis{jf: s.pattern.Clone(), jq: s.pattern.Clone()}
	n := s.N
	// Split probe at x = 0 for the linear devices: AddJ routes into jf and
	// AddJQ raw into jq (the mq routing used by AC assembly), giving an
	// exact J_F / J_Q separation with no finite-difference error. F, Q and
	// B writes are discarded — for a linear device F(0) = Q(0) = 0 and its
	// B contribution, if any, is re-stamped every load.
	linCtx := EvalCtx{
		X:        make([]float64, n),
		SrcScale: 1,
		NoLimit:  true,
		SPrev:    make([]float64, s.NumStates),
		SNext:    make([]float64, s.NumStates),
		m:        b.jf,
		mq:       b.jq,
		F:        make([]float64, n),
		Q:        make([]float64, n),
		B:        make([]float64, n),
	}
	for di, d := range devices {
		if !linearDevice(d) {
			b.nonlinear = append(b.nonlinear, di)
			continue
		}
		d.Eval(&linCtx)
		if d.(LinearStamper).LinearStamps() {
			b.sources = append(b.sources, di)
		}
	}
	// Compress the linear split: record only the pattern entries where jf or
	// jq is nonzero, with (row, col, value) triples for the mat-vec products.
	for col := 0; col < n; col++ {
		m := b.jf
		for p := m.ColPtr[col]; p < m.ColPtr[col+1]; p++ {
			fv, qv := b.jf.Values[p], b.jq.Values[p]
			if fv == 0 && qv == 0 {
				continue
			}
			b.linPos = append(b.linPos, p)
			b.linJF = append(b.linJF, fv)
			b.linJQ = append(b.linJQ, qv)
			if fv != 0 {
				b.jfR = append(b.jfR, m.RowIdx[p])
				b.jfC = append(b.jfC, col)
				b.jfV = append(b.jfV, fv)
			}
			if qv != 0 {
				b.jqR = append(b.jqR, m.RowIdx[p])
				b.jqC = append(b.jqC, col)
				b.jqV = append(b.jqV, qv)
			}
		}
	}
	return b
}

// tmplWay is one way of the linear-template LRU.
type tmplWay struct {
	valid     bool
	alphaBits uint64
	used      uint64
	values    []float64
}

// incState is the mutable per-workspace half of the incremental engine.
type incState struct {
	basis *incBasis

	stamp uint64 // LRU clock
	ways  [templateWays]tmplWay

	// dump buffers absorb the J/F/Q writes of per-load source evaluations
	// (their constant stamps already live in the template); lazily
	// allocated, reused for the life of the workspace.
	dumpM        *sparse.Matrix
	dumpF, dumpQ []float64

	lastLinear bool
	linearHits int64
}

// SetDeviceBypass switches the incremental assembly engine of this workspace
// on or off. Switching it on is a no-op when the circuit does not support it
// (a Build-time probe failed), keeping the plain path in charge.
func (ws *Workspace) SetDeviceBypass(on bool) {
	ws.inc = nil
	if !on {
		return
	}
	if basis := ws.Sys.incrementalBasis(); basis != nil {
		ws.inc = &incState{basis: basis}
	}
}

// LastLoadLinearHit reports whether the most recent Load started from a
// cached linear template (an LRU hit).
func (ws *Workspace) LastLoadLinearHit() bool {
	return ws.inc != nil && ws.inc.lastLinear
}

// LinearStampHits returns the cumulative count of loads that started from a
// cached linear template.
func (ws *Workspace) LinearStampHits() int64 {
	if ws.inc == nil {
		return 0
	}
	return ws.inc.linearHits
}

// template returns the Alpha0-blended linear template values, serving from
// the LRU when this Alpha0 was seen recently and otherwise evicting the
// least recently used way. Way buffers are allocated once and reused across
// evictions, so steady-state loads allocate nothing.
func (inc *incState) template(alpha0 float64) []float64 {
	bits := math.Float64bits(alpha0)
	inc.stamp++
	for w := range inc.ways {
		way := &inc.ways[w]
		if way.valid && way.alphaBits == bits {
			way.used = inc.stamp
			inc.lastLinear = true
			inc.linearHits++
			return way.values
		}
	}
	victim := &inc.ways[0]
	for w := 1; w < templateWays; w++ {
		if inc.ways[w].used < victim.used {
			victim = &inc.ways[w]
		}
	}
	basis := inc.basis
	if victim.values == nil {
		victim.values = make([]float64, basis.jf.NNZ())
	}
	tv := victim.values
	// Only entries with a linear contribution ever change; positions outside
	// linPos stay zero for the life of the way buffer.
	for t, p := range basis.linPos {
		tv[p] = basis.linJF[t] + alpha0*basis.linJQ[t]
	}
	victim.valid = true
	victim.alphaBits = bits
	victim.used = inc.stamp
	inc.lastLinear = false
	return tv
}

// loadIncremental assembles the system through the incremental engine.
// Returns false when this load must take the plain path (bookkeeping loads,
// source stepping), leaving the workspace untouched.
func (ws *Workspace) loadIncremental(x []float64, p LoadParams) bool {
	inc := ws.inc
	// NoLimit loads must evaluate every device exactly at the iterate;
	// source-stepping loads rescale B under the template's feet. Both take
	// the plain path.
	if p.NoLimit || p.SrcScale != 1 {
		return false
	}
	basis := inc.basis
	devices := ws.Sys.Circuit.devices
	ctx := &ws.evalCtx
	// Linear layer: one memcpy of the blended template replaces re-stamping
	// every linear device — and clearing the matrix first: the copy writes
	// every entry — and the compact split triples rebuild the linear part of
	// F and Q without touching the nonlinear-dominated pattern.
	ws.beginLoad(ctx, x, p, zeroVectors)
	copy(ws.M.Values, inc.template(p.Alpha0))
	for t, r := range basis.jfR {
		ws.F[r] += basis.jfV[t] * x[basis.jfC[t]]
	}
	for t, r := range basis.jqR {
		ws.Q[r] += basis.jqV[t] * x[basis.jqC[t]]
	}
	if len(basis.sources) > 0 {
		// Independent sources re-stamp only B each load; their constant
		// Jacobian and F/Q contributions are already in the template and the
		// MulVec products, so those writes drain into dump buffers.
		if inc.dumpM == nil {
			inc.dumpM = ws.M.Clone()
			inc.dumpF = make([]float64, ws.Sys.N)
			inc.dumpQ = make([]float64, ws.Sys.N)
		}
		ctx.m, ctx.F, ctx.Q = inc.dumpM, inc.dumpF, inc.dumpQ
		for _, di := range basis.sources {
			devices[di].Eval(ctx)
		}
		ctx.m, ctx.F, ctx.Q = ws.M, ws.F, ws.Q
	}
	for _, di := range basis.nonlinear {
		devices[di].Eval(ctx)
	}
	ws.finishLoad(x, p, ctx.Limited)
	return true
}
