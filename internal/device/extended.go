package device

import (
	"math"

	"wavepipe/internal/circuit"
)

// CCCS is a current-controlled current source (SPICE F element): a current
// Gain·i(Ctrl) flows from P to N, where Ctrl is the controlling voltage
// source. The branch index is resolved at Reserve time, after Build has
// assigned it.
type CCCS struct {
	Inst string
	P, N int
	Ctrl *VSource
	Gain float64

	ctrlBr   int
	spc, snc int
}

// NewCCCS returns a CCCS controlled by the given voltage source's current.
func NewCCCS(name string, p, n int, ctrl *VSource, gain float64) *CCCS {
	return &CCCS{Inst: name, P: p, N: n, Ctrl: ctrl, Gain: gain}
}

// Name implements circuit.Device.
func (d *CCCS) Name() string { return d.Inst }

// Branches implements circuit.Device.
func (d *CCCS) Branches() int { return 0 }

// States implements circuit.Device.
func (d *CCCS) States() int { return 0 }

// Bind implements circuit.Device.
func (d *CCCS) Bind(int, int) {}

// Reserve implements circuit.Device.
func (d *CCCS) Reserve(r *circuit.Reserver) {
	d.ctrlBr = d.Ctrl.BranchIndex()
	d.spc = r.J(d.P, d.ctrlBr)
	d.snc = r.J(d.N, d.ctrlBr)
}

// Eval implements circuit.Device.
func (d *CCCS) Eval(e *circuit.EvalCtx) {
	i := d.Gain * e.X[d.ctrlBr]
	e.AddF(d.P, i)
	e.AddF(d.N, -i)
	e.AddJ(d.spc, d.Gain)
	e.AddJ(d.snc, -d.Gain)
}

// CCVS is a current-controlled voltage source (SPICE H element):
// v(P) − v(N) = Gain · i(Ctrl), with its own branch current unknown.
type CCVS struct {
	Inst string
	P, N int
	Ctrl *VSource
	Gain float64

	br, ctrlBr              int
	spb, snb, sbp, sbn, sbc int
}

// NewCCVS returns a CCVS controlled by the given voltage source's current.
func NewCCVS(name string, p, n int, ctrl *VSource, gain float64) *CCVS {
	return &CCVS{Inst: name, P: p, N: n, Ctrl: ctrl, Gain: gain}
}

// Name implements circuit.Device.
func (d *CCVS) Name() string { return d.Inst }

// Branches implements circuit.Device.
func (d *CCVS) Branches() int { return 1 }

// States implements circuit.Device.
func (d *CCVS) States() int { return 0 }

// Bind implements circuit.Device.
func (d *CCVS) Bind(branch0, _ int) { d.br = branch0 }

// BranchIndex returns the solution-vector index of the source current.
func (d *CCVS) BranchIndex() int { return d.br }

// Reserve implements circuit.Device.
func (d *CCVS) Reserve(r *circuit.Reserver) {
	d.ctrlBr = d.Ctrl.BranchIndex()
	d.spb = r.J(d.P, d.br)
	d.snb = r.J(d.N, d.br)
	d.sbp = r.J(d.br, d.P)
	d.sbn = r.J(d.br, d.N)
	d.sbc = r.J(d.br, d.ctrlBr)
}

// Eval implements circuit.Device.
func (d *CCVS) Eval(e *circuit.EvalCtx) {
	i := e.X[d.br]
	e.AddF(d.P, i)
	e.AddF(d.N, -i)
	e.AddJ(d.spb, 1)
	e.AddJ(d.snb, -1)
	e.AddF(d.br, e.V(d.P)-e.V(d.N)-d.Gain*e.X[d.ctrlBr])
	e.AddJ(d.sbp, 1)
	e.AddJ(d.sbn, -1)
	e.AddJ(d.sbc, -d.Gain)
}

// SwitchModel parameterizes a voltage-controlled switch.
type SwitchModel struct {
	RON  float64 // on resistance [Ω]
	ROFF float64 // off resistance [Ω]
	VT   float64 // threshold control voltage [V]
	DV   float64 // transition half-width [V]
}

// DefaultSwitchModel returns SPICE-like switch defaults with a smooth
// transition (the hysteretic SPICE switch is replaced by a continuously
// differentiable log-resistance interpolation — state-free, so it is safe
// under WavePipe's concurrent evaluation).
func DefaultSwitchModel() SwitchModel {
	return SwitchModel{RON: 1, ROFF: 1e9, VT: 0, DV: 0.1}
}

// Switch is a voltage-controlled smooth switch between P and N, controlled
// by v(CP) − v(CN).
type Switch struct {
	Inst         string
	P, N, CP, CN int
	Model        SwitchModel

	lnGon, lnGoff          float64
	spp, spn, snp, snn     int
	spcp, spcn, sncp, sncn int
}

// NewSwitch returns a switch instance.
func NewSwitch(name string, p, n, cp, cn int, m SwitchModel) *Switch {
	if m.RON <= 0 {
		m.RON = 1
	}
	if m.ROFF <= 0 {
		m.ROFF = 1e9
	}
	if m.DV <= 0 {
		m.DV = 0.1
	}
	return &Switch{
		Inst: name, P: p, N: n, CP: cp, CN: cn, Model: m,
		lnGon: math.Log(1 / m.RON), lnGoff: math.Log(1 / m.ROFF),
	}
}

// Name implements circuit.Device.
func (d *Switch) Name() string { return d.Inst }

// Branches implements circuit.Device.
func (d *Switch) Branches() int { return 0 }

// States implements circuit.Device.
func (d *Switch) States() int { return 0 }

// Bind implements circuit.Device.
func (d *Switch) Bind(int, int) {}

// Reserve implements circuit.Device.
func (d *Switch) Reserve(r *circuit.Reserver) {
	d.spp = r.J(d.P, d.P)
	d.spn = r.J(d.P, d.N)
	d.snp = r.J(d.N, d.P)
	d.snn = r.J(d.N, d.N)
	d.spcp = r.J(d.P, d.CP)
	d.spcn = r.J(d.P, d.CN)
	d.sncp = r.J(d.N, d.CP)
	d.sncn = r.J(d.N, d.CN)
}

// conductance returns g(vc) and dg/dvc: a smoothstep between ln(1/ROFF)
// and ln(1/RON) centred on VT with half-width DV.
func (d *Switch) conductance(vc float64) (g, dg float64) {
	m := d.Model
	u := (vc - m.VT + m.DV) / (2 * m.DV)
	var s, ds float64
	switch {
	case u <= 0:
		s, ds = 0, 0
	case u >= 1:
		s, ds = 1, 0
	default:
		s = u * u * (3 - 2*u)
		ds = 6 * u * (1 - u) / (2 * m.DV)
	}
	lng := d.lnGoff + s*(d.lnGon-d.lnGoff)
	g = math.Exp(lng)
	dg = g * ds * (d.lnGon - d.lnGoff)
	return g, dg
}

// Eval implements circuit.Device.
func (d *Switch) Eval(e *circuit.EvalCtx) {
	vc := e.V(d.CP) - e.V(d.CN)
	v := e.V(d.P) - e.V(d.N)
	g, dg := d.conductance(vc)
	i := g * v
	e.AddF(d.P, i)
	e.AddF(d.N, -i)
	e.AddJ(d.spp, g)
	e.AddJ(d.spn, -g)
	e.AddJ(d.snp, -g)
	e.AddJ(d.snn, g)
	// di/dvc = dg·v couples the channel to the control nodes.
	e.AddJ(d.spcp, dg*v)
	e.AddJ(d.spcn, -dg*v)
	e.AddJ(d.sncp, -dg*v)
	e.AddJ(d.sncn, dg*v)
}

// Mutual couples two inductors with mutual inductance M = K·sqrt(L1·L2)
// (SPICE K element). It must be added to the circuit after both inductors.
type Mutual struct {
	Inst   string
	L1, L2 *Inductor
	K      float64

	m        float64
	s12, s21 int
}

// NewMutual returns a mutual-inductance coupling with coefficient k ∈ (0,1].
func NewMutual(name string, l1, l2 *Inductor, k float64) *Mutual {
	return &Mutual{Inst: name, L1: l1, L2: l2, K: k}
}

// Name implements circuit.Device.
func (d *Mutual) Name() string { return d.Inst }

// Branches implements circuit.Device.
func (d *Mutual) Branches() int { return 0 }

// States implements circuit.Device.
func (d *Mutual) States() int { return 0 }

// Bind implements circuit.Device.
func (d *Mutual) Bind(int, int) {
	d.m = d.K * math.Sqrt(d.L1.L*d.L2.L)
}

// Reserve implements circuit.Device.
func (d *Mutual) Reserve(r *circuit.Reserver) {
	d.s12 = r.J(d.L1.BranchIndex(), d.L2.BranchIndex())
	d.s21 = r.J(d.L2.BranchIndex(), d.L1.BranchIndex())
}

// Eval implements circuit.Device.
func (d *Mutual) Eval(e *circuit.EvalCtx) {
	d.EvalQ(e)
	e.AddJQ(d.s12, -d.m)
	e.AddJQ(d.s21, -d.m)
}

// EvalQ implements circuit.ChargeEvaler. Each inductor's branch equation
// already carries Q = −L·i_self; the coupling adds −M·i_other to each flux.
func (d *Mutual) EvalQ(e *circuit.EvalCtx) {
	i1 := e.X[d.L1.BranchIndex()]
	i2 := e.X[d.L2.BranchIndex()]
	e.AddQ(d.L1.BranchIndex(), -d.m*i2)
	e.AddQ(d.L2.BranchIndex(), -d.m*i1)
}
