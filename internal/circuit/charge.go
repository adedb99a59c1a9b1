package circuit

// The charge pass: what a converged point still owes the integrator is the
// charge vector Q(x) at the accepted iterate — not the currents, conductances
// and Jacobian stamps a full Load assembles beside it. LoadCharges evaluates
// the charges and only them.

// ChargeEvaler is the optional device contract behind the charge pass. EvalQ
// issues exactly the AddQ calls Eval issues under NoLimit, in the same order
// and from the same expressions, and writes the limiting-state slots (SNext)
// that pass writes; it touches nothing else — no AddF, AddB, AddJ or AddJQ.
// A device that stores charge or keeps limiting state implements it; one that
// does neither has nothing to book and does not.
//
// Like LinearStamper this is a correctness promise, not a hint: the same
// calls in the same order is what makes the Q of a charge pass the Q of the
// full NoLimit load bit for bit, and the device tests hold every
// implementation to it (TestEvalQMatchesEval in internal/device).
type ChargeEvaler interface {
	EvalQ(ctx *EvalCtx)
}

// chargeDevices lists, in device order, the devices a charge pass must visit:
// every ChargeEvaler, and every device the Build-time probe saw write Q
// without being one (swept through its full Eval — slower, never wrong). A
// nil wroteQ means the probe failed and nothing is known: every device is
// listed, which is the cost of the full load the pass replaces. wroteQ is
// consumed.
func chargeDevices(devices []Device, wroteQ []bool) []int32 {
	n := len(devices)
	if wroteQ != nil {
		n = 0
		for i, d := range devices {
			if _, ok := d.(ChargeEvaler); ok {
				wroteQ[i] = true
			}
			if wroteQ[i] {
				n++
			}
		}
	}
	list := make([]int32, 0, n)
	for i := range devices {
		if wroteQ == nil || wroteQ[i] {
			list = append(list, int32(i))
		}
	}
	return list
}

// planCharges resolves the charge pass for this workspace: the order the
// listed devices are swept in and, per device, the EvalQ to call (nil: the
// full Eval). The order is the one the workspace's Load accumulates rows in —
// device order, or color-class order once SetPool put Load on the colored
// path — so a row several devices charge sums in the same sequence either
// way. The dispatch is resolved against ws.Devices(), so a lane workspace
// books its own variant's instances.
func (ws *Workspace) planCharges() {
	sys := ws.Sys
	order := sys.chargeDevs
	if ws.colored {
		listed := make([]bool, len(sys.Circuit.devices))
		for _, di := range order {
			listed[di] = true
		}
		order = make([]int32, 0, len(sys.chargeDevs))
		for _, class := range sys.colorClasses {
			for _, di := range class {
				if listed[di] {
					order = append(order, int32(di))
				}
			}
		}
	}
	devs := ws.Devices()
	evalers := make([]ChargeEvaler, len(order))
	for k, di := range order {
		evalers[k], _ = devs[di].(ChargeEvaler)
	}
	ws.chargeOrder, ws.chargeEvalers = order, evalers
}

// LoadCharges leaves in ws.Q the charge vector at iterate x and in ws.SNext
// the unlimited junction voltages there — bit for bit what a full Load under
// p with NoLimit leaves in them — without assembling anything else: it zeroes
// Q only, sweeps only the devices that book charge or limiting state, and
// leaves M, F, B and Limited as the last Load left them (a listed device
// without EvalQ goes through its full Eval, whose stamps land on top of that
// Load's; nothing reads them before the next Load's zeroing). It is what
// closes a converged point solve; the full NoLimit load it replaced survives
// as the oracle of the tests.
func (ws *Workspace) LoadCharges(x []float64, p LoadParams) {
	if ws.chargeEvalers == nil {
		ws.planCharges()
	}
	p.NoLimit = true
	ctx := &ws.evalCtx
	ws.beginLoad(ctx, x, p, 0, 1, zeroQ)
	devs := ws.Devices()
	for k, di := range ws.chargeOrder {
		if q := ws.chargeEvalers[k]; q != nil {
			q.EvalQ(ctx)
		} else {
			devs[di].Eval(ctx)
		}
	}
}
