package circuit

import "wavepipe/internal/sparse"

// The charge pass: what a converged point still owes the integrator is the
// charge vector Q(x) at the accepted iterate — not the currents, conductances
// and Jacobian stamps a full Load assembles beside it. LoadCharges evaluates
// the charges and only them.

// ChargeEvaler is the optional device contract behind the charge pass. EvalQ
// issues exactly the AddQ calls Eval issues under NoLimit and the same
// EvalCtx.Templated, in the same order and from the same expressions, and
// writes the limiting-state slots (SNext) that pass writes; it touches
// nothing else — no AddF, AddB, AddJ or AddJQ.
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
// every ChargeEvaler, and every device a one-shot Eval at x = 0 into throwaway
// buffers saw write Q without being one (swept through its full Eval — slower,
// never wrong). The contract this relies on: whether a device writes Q must
// not depend on the iterate. A device that panics under the probe leaves
// nothing known, and every device is listed, which is the cost of the full
// load the pass replaces.
func chargeDevices(devices []Device, pattern *sparse.Matrix, n, numStates int) (list []int32) {
	defer func() {
		if recover() != nil {
			list = make([]int32, len(devices))
			for i := range list {
				list[i] = int32(i)
			}
		}
	}()
	var wroteQ bool
	ctx := EvalCtx{
		X:        make([]float64, n),
		SrcScale: 1,
		NoLimit:  true,
		SPrev:    make([]float64, numStates),
		SNext:    make([]float64, numStates),
		m:        pattern.Clone(),
		F:        make([]float64, n),
		Q:        make([]float64, n),
		B:        make([]float64, n),
		wroteQ:   &wroteQ,
	}
	for i, d := range devices {
		_, books := d.(ChargeEvaler)
		if !books {
			wroteQ = false
			d.Eval(&ctx)
			books = wroteQ
		}
		if books {
			list = append(list, int32(i))
		}
	}
	return list
}

// LoadCharges is the full sweep's charge pass: it leaves in ws.Q the charge
// vector at iterate x and in ws.SNext the unlimited junction voltages there —
// bit for bit what a full Load under p with NoLimit leaves in them — without
// assembling anything else: it zeroes Q only, sweeps only the devices that
// book charge or limiting state, and leaves M, F, B and Limited as the last
// Load left them (a listed device without EvalQ goes through its full Eval,
// whose stamps land on top of that Load's; nothing reads them before the next
// Load's zeroing). It closes a converged point solve where the template probe
// failed (BookCharges closes it everywhere else). The devices are swept in
// device order, the order Load accumulates rows in, so a row several devices
// charge sums in the same sequence either way, and from ws.Devices(), so a
// lane workspace books its own variant's instances.
func (ws *Workspace) LoadCharges(x []float64, p LoadParams) {
	p.NoLimit = true
	ctx := &ws.evalCtx
	ws.beginLoad(ctx, x, p, zeroQ)
	ws.bookCharges(ctx, ws.Sys.chargeDevs)
}

// bookCharges sweeps the listed devices of ws.Devices() for a charge pass:
// EvalQ where a device has one, else its full Eval.
func (ws *Workspace) bookCharges(ctx *EvalCtx, list []int32) {
	devs := ws.Devices()
	for _, di := range list {
		if q, ok := devs[di].(ChargeEvaler); ok {
			q.EvalQ(ctx)
		} else {
			devs[di].Eval(ctx)
		}
	}
}
