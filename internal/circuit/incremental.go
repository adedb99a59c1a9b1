// The stamp template.
//
// Most of a circuit's stamps are constant: every linear device stamps constant
// Jacobians, with F = J_F·x and Q = J_Q·x, and a nonlinear device may declare
// a constant linear part of its own (LinearPartStamper: a MOSFET's gate and
// junction capacitances). Each workspace probes these once into one J_F / J_Q
// split, its template. A load through it evaluates the sources for B, takes
// J_F + Alpha0·J_Q for the matrix and J_F·x, J_Q·x for F and Q, and then
// sweeps the nonlinear devices alone, each under EvalCtx.Templated, so that
// it skips the part the template holds. A linear System is the case with no
// device to sweep. The charge pass (BookCharges) takes J_Q·x and the charges
// of the swept devices the same probe listed.
//
// Every workspace probes its own device list on its first load (and again
// after SetDevices), so an ensemble lane is templated from its variant's
// values and the template lives and dies with the workspace. Every load goes
// through it, NoLimit, source-stepping and AC split loads alike. It sums
// stamps in another order than a sweep of every device, so the two agree to
// rounding, not bit for bit.
//
// On a linear System the matrix is a function of Alpha0 alone, so a templated
// load does not write it: it hands Alpha0 to the solver as the request's key
// (sparse.Solver.Defer) and the solver blends through Workspace.blend only
// when its store cannot answer that key. A load that adds to the blend (a
// gmin-stepping or .NODESET conductance) has it assembled first and is keyed
// by its values (Workspace.writeM). A nonlinear System's load writes the blend
// itself and adds its devices' stamps to it.
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

// LinearPartStamper marks a nonlinear device with a constant linear part:
// StampLinearPart issues exactly the stamps of that part, with the same calls
// and expressions as Eval, and F and Q exactly linear in the iterate (zero at
// x = 0). Under EvalCtx.Templated the device's Eval and EvalQ skip that part,
// which the template holds. Like LinearStamper this is a correctness promise:
// a templated pass followed by StampLinearPart must issue what Eval issues,
// slot for slot and bit for bit (TestLinearPartContract in internal/device).
type LinearPartStamper interface {
	StampLinearPart(ctx *EvalCtx)
}

// ChargeEvaler is the device contract behind the charge pass (BookCharges),
// which books the charge vector Q(x) a converged point still owes the
// integrator and nothing of what a full Load assembles beside it. EvalQ issues
// exactly the AddQ calls Eval issues under NoLimit and the same
// EvalCtx.Templated, in the same order and from the same expressions, and
// writes the limiting-state slots (SNext) that pass writes; it touches
// nothing else — no AddF, AddB, AddJ or AddJQ.
// A swept device that stores charge or keeps limiting state must implement
// it: the charge pass visits no other device, and the template books the
// charge of the linear ones. Any other has nothing to book and does not.
//
// Like LinearStamper this is a correctness promise, not a hint: the same
// calls in the same order is what makes the Q of a charge pass the Q of the
// full NoLimit load bit for bit, and the device tests hold every
// implementation to it (TestEvalQMatchesEval and
// TestChargeWritersImplementEvalQ in internal/device).
type ChargeEvaler interface {
	EvalQ(ctx *EvalCtx)
}

// linearDevice reports whether d is a LinearStamper with no limiting state of
// its own. A System whose every device is one is Linear.
func linearDevice(d Device) bool {
	_, ok := d.(LinearStamper)
	return ok && d.States() == 0
}

// stampTemplate is the exact J_F / J_Q split of the constant stamps of one
// workspace's devices in compact form: the pattern is dominated by entries
// that are zero in both, so the blend and the products iterate only the
// entries that exist. pos/jf/jq drive the blend (M[pos[t]] = jf[t] +
// Alpha0·jq[t]); the (row, col, value) triples drive the two matrix-vector
// products.
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
	// sweep lists, in device order, the nonlinear devices a load evaluates.
	sweep []int
	// charges lists, in device order, those of them the charge pass visits:
	// every ChargeEvaler but a declared linear part without limiting state,
	// whose templated EvalQ has nothing left to book.
	charges []ChargeEvaler
}

// newStampTemplate probes devs once at x = 0: each linear device's Eval and
// each declared linear part's StampLinearPart route AddJ into a J_F matrix
// and AddJQ raw into a J_Q one (the split AC assembly uses), which separates
// the two with no finite-difference error. F, Q and B writes are discarded;
// those stamps are linear, so F(0) = Q(0) = 0, and B is stamped every
// load. Every other device is swept, and the same loop lists the ones the
// charge pass visits: what a workspace sweeps and books is decided here and
// nowhere else.
func newStampTemplate(s *System, devs []Device) *stampTemplate {
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
	tp := &stampTemplate{}
	for di, d := range devs {
		if linearDevice(d) {
			d.Eval(&ctx)
			if d.(LinearStamper).LinearStamps() {
				tp.sources = append(tp.sources, di)
			}
			continue
		}
		tp.sweep = append(tp.sweep, di)
		lp, declares := d.(LinearPartStamper)
		if declares {
			lp.StampLinearPart(&ctx)
		}
		if q, ok := d.(ChargeEvaler); ok && !(declares && d.States() == 0) {
			tp.charges = append(tp.charges, q)
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
// the first call after NewWorkspace or SetDevices.
func (ws *Workspace) template() *stampTemplate {
	if ws.tmpl == nil {
		ws.tmpl = newStampTemplate(ws.Sys, ws.Devices())
	}
	return ws.tmpl
}

// loadSources opens a load through the template at x: B is cleared and the
// sources are evaluated straight into the workspace for it. Their J, F and Q
// stamps are already in the template: the caller writes M from it, and
// sweepNonlinear rebuilds F and Q.
func (ws *Workspace) loadSources(x []float64, p LoadParams) (*EvalCtx, *stampTemplate) {
	tp := ws.template()
	ctx := &ws.evalCtx
	ws.beginLoad(ctx, x, p, zeroB)
	devs := ws.Devices()
	for _, di := range tp.sources {
		devs[di].Eval(ctx)
	}
	return ctx, tp
}

// sweepNonlinear closes a load through the template: F and Q are the two
// products J_F·x and J_Q·x, the nonlinear devices are swept on top of them
// and of M under EvalCtx.Templated, and finishLoad follows.
func (ws *Workspace) sweepNonlinear(ctx *EvalCtx, tp *stampTemplate, x []float64, p LoadParams) {
	ws.zero(zeroF | zeroQ)
	mulAdd(ws.F, x, tp.jfR, tp.jfC, tp.jfV)
	mulAdd(ws.Q, x, tp.jqR, tp.jqC, tp.jqV)
	ctx.Templated = true
	devs := ws.Devices()
	for _, di := range tp.sweep {
		devs[di].Eval(ctx)
	}
	ws.finishLoad(x, p, ctx.Limited)
}

// LoadSources is the load of a linear point solved for its iterate
// (newton.Iter.Direct), which needs B and the matrix and nothing else: the
// sources are evaluated for B, and the matrix is requested by Alpha0 as a
// templated load requests it, with a gmin-stepping or .NODESET conductance
// added as finishLoad adds it (a clamp's target current goes to B). The
// sources' F stamps at x are dropped and Q is left alone; x is what they are
// evaluated at and may hold any values. The System must be linear.
func (ws *Workspace) LoadSources(x []float64, p LoadParams) {
	tp := ws.template()
	ctx := &ws.evalCtx
	ws.beginLoad(ctx, x, p, zeroF|zeroB)
	devs := ws.Devices()
	for _, di := range tp.sources {
		devs[di].Eval(ctx)
	}
	ws.Solver.Defer(p.Alpha0)
	ws.finishLoad(nil, p, false)
}

// BookCharges is the charge pass that closes a converged point: through the
// template it books Q = J_Q·x, then the charges of the devices the template
// lists for it on top, unlimited — bit for bit what a templated load at x
// under NoLimit semantics leaves in Q and SNext. M, F, B and Limited stay as
// the last Load left them. The list is in device order, the order a load
// accumulates rows in, and from ws.Devices(), so a lane workspace books its
// own variant's instances.
func (ws *Workspace) BookCharges(x []float64, p LoadParams) {
	tp := ws.template()
	clear(ws.Q)
	mulAdd(ws.Q, x, tp.jqR, tp.jqC, tp.jqV)
	if len(tp.charges) == 0 {
		return
	}
	p.NoLimit = true
	ctx := &ws.evalCtx
	ws.beginLoad(ctx, x, p, 0)
	ctx.Templated = true
	for _, d := range tp.charges {
		d.EvalQ(ctx)
	}
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
