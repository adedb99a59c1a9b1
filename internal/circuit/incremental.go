// Linear systems: the stamp template.
//
// On a linear System (see System.Linear) every device stamps constant
// Jacobians, with F = J_F·x and Q = J_Q·x, and only the sources' B moves with
// time. The matrix of a load is then J_F + Alpha0·J_Q, a blend of two fixed
// arrays, and F and Q are two compact matrix-vector products. A load through
// the template evaluates the sources for B and does arithmetic for the rest
// instead of sweeping every device through Eval.
//
// Every workspace of a linear System builds its own template from its own
// device list on its first templated load (and again after SetDevices), so an
// ensemble lane is templated from its variant's values and the template lives
// and dies with the workspace. A nonlinear System has none. NoLimit loads and
// source-stepping loads take the plain sweep on either. The template sums
// stamps in another order than the sweep, so the two agree to rounding, not
// bit for bit.
//
// The blend is a function of Alpha0 alone, so a templated load does not write
// it: it hands Alpha0 to the solver as the request's key (sparse.Solver.Defer)
// and the solver blends through Workspace.blend only when its store cannot
// answer that key. A load that adds to the blend (a gmin-stepping or
// .NODESET conductance) has it assembled first and is keyed by its values
// (Workspace.writeM).
package circuit

// LinearStamper marks a device whose F and Q stamps are exactly linear in
// the iterate (F = J_F·x, Q = J_Q·x with constant Jacobians) and whose only
// time dependence, if any, lives in the source vector B. The returned flag
// reports whether the device stamps B at all: such devices (independent
// sources) are re-evaluated every load for their B contribution, while their
// constant Jacobian lives in the template.
//
// Implementing this interface is a correctness promise, not a hint: the
// finite-difference Jacobian tests in internal/device are the safety net.
type LinearStamper interface {
	LinearStamps() (timeVaryingB bool)
}

// linearDevice reports whether d keeps that promise with no limiting state
// of its own. A System whose every device is one is Linear.
func linearDevice(d Device) bool {
	_, ok := d.(LinearStamper)
	return ok && d.States() == 0
}

// stampTemplate is the exact J_F / J_Q split of one workspace's devices in
// compact form: the pattern is dominated by entries that are zero in both, so
// the blend and the products iterate only the entries that exist. pos/jf/jq
// drive the blend (M[pos[t]] = jf[t] + Alpha0·jq[t]); the (row, col, value)
// triples drive the two matrix-vector products.
type stampTemplate struct {
	pos      []int
	jf, jq   []float64
	jfR, jfC []int
	jfV      []float64
	jqR, jqC []int
	jqV      []float64

	// sources lists the devices with a time-varying B (independent sources),
	// evaluated every load for it.
	sources []int
}

// newStampTemplate probes devs once at x = 0: AddJ routes into a J_F matrix
// and AddJQ raw into a J_Q one (the split AC assembly uses), which separates
// the two with no finite-difference error. F, Q and B writes are discarded;
// for a linear device F(0) = Q(0) = 0, and B is stamped every load. Like the
// charge probe it returns nil if a device is not linear or panics under the
// probe, which leaves the workspace on the plain sweep.
func newStampTemplate(s *System, devs []Device) (tp *stampTemplate) {
	defer func() {
		if recover() != nil {
			tp = nil
		}
	}()
	n := s.N
	mf, mq := s.pattern.Clone(), s.pattern.Clone()
	ctx := EvalCtx{
		X:        make([]float64, n),
		SrcScale: 1,
		NoLimit:  true,
		SPrev:    make([]float64, s.NumStates),
		SNext:    make([]float64, s.NumStates),
		m:        mf,
		mq:       mq,
		F:        make([]float64, n),
		Q:        make([]float64, n),
		B:        make([]float64, n),
	}
	tp = &stampTemplate{}
	for di, d := range devs {
		if !linearDevice(d) {
			return nil
		}
		d.Eval(&ctx)
		if d.(LinearStamper).LinearStamps() {
			tp.sources = append(tp.sources, di)
		}
	}
	// Sized exactly before they are filled: growing nine slices by appending
	// costs a grid16 template about a hundred allocations.
	var nLin, nF, nQ int
	for p, fv := range mf.Values {
		qv := mq.Values[p]
		if fv != 0 || qv != 0 {
			nLin++
		}
		if fv != 0 {
			nF++
		}
		if qv != 0 {
			nQ++
		}
	}
	tp.pos, tp.jf, tp.jq = make([]int, 0, nLin), make([]float64, 0, nLin), make([]float64, 0, nLin)
	tp.jfR, tp.jfC, tp.jfV = make([]int, 0, nF), make([]int, 0, nF), make([]float64, 0, nF)
	tp.jqR, tp.jqC, tp.jqV = make([]int, 0, nQ), make([]int, 0, nQ), make([]float64, 0, nQ)
	for col := 0; col < n; col++ {
		for p := mf.ColPtr[col]; p < mf.ColPtr[col+1]; p++ {
			fv, qv := mf.Values[p], mq.Values[p]
			if fv == 0 && qv == 0 {
				continue
			}
			tp.pos = append(tp.pos, p)
			tp.jf = append(tp.jf, fv)
			tp.jq = append(tp.jq, qv)
			if fv != 0 {
				tp.jfR = append(tp.jfR, mf.RowIdx[p])
				tp.jfC = append(tp.jfC, col)
				tp.jfV = append(tp.jfV, fv)
			}
			if qv != 0 {
				tp.jqR = append(tp.jqR, mf.RowIdx[p])
				tp.jqC = append(tp.jqC, col)
				tp.jqV = append(tp.jqV, qv)
			}
		}
	}
	return tp
}

// template returns the workspace's stamp template, probing its devices on
// the first call after NewWorkspace or SetDevices; nil on a nonlinear System
// and where the probe failed, which is remembered too.
func (ws *Workspace) template() *stampTemplate {
	if !ws.probed && ws.Sys.linear {
		ws.tmpl, ws.probed = newStampTemplate(ws.Sys, ws.Devices()), true
	}
	return ws.tmpl
}

// loadTemplate is the sweep of a Load through the template. The sources are
// evaluated straight into the workspace for B; their J, F and Q stamps are
// already in the template, so F and Q are cleared after them and rebuilt by
// the two products, and M is the blend, deferred to the solver under the key
// Alpha0 (finishLoad assembles it before adding to it).
func (ws *Workspace) loadTemplate(ctx *EvalCtx, tp *stampTemplate, x []float64, p LoadParams) {
	ws.beginLoad(ctx, x, p, zeroB)
	devs := ws.Devices()
	for _, di := range tp.sources {
		devs[di].Eval(ctx)
	}
	ws.zero(zeroF | zeroQ)
	ws.Solver.Defer(p.Alpha0)
	mulAdd(ws.F, x, tp.jfR, tp.jfC, tp.jfV)
	mulAdd(ws.Q, x, tp.jqR, tp.jqC, tp.jqV)
}

// mulAdd accumulates the product of the (rows, cols, vals) triples with x
// into dst, one triple after another.
func mulAdd(dst, x []float64, rows, cols []int, vals []float64) {
	cols, vals = cols[:len(rows)], vals[:len(rows)]
	for t, r := range rows {
		dst[r] += vals[t] * x[cols[t]]
	}
}

// blend writes the template's matrix at alpha0 into M, the workspace's
// sparse.Solver.Assemble.
func (ws *Workspace) blend(alpha0 float64) {
	tp := ws.tmpl
	m := ws.M.Values
	clear(m)
	for t, pos := range tp.pos {
		m[pos] = tp.jf[t] + alpha0*tp.jq[t]
	}
}
