package device

import (
	"math"

	"wavepipe/internal/circuit"
)

// EKVModel is a simplified EKV (Enz–Krummenacher–Vittoz) MOSFET model: a
// single smooth charge-sheet expression valid from subthreshold through
// strong inversion, symmetric in drain and source. Compared with Level-1 it
// is continuously differentiable everywhere and — like the BSIM-class
// models the WavePipe paper used — typically needs more Newton iterations
// per time point, which is the regime where forward pipelining pays.
type EKVModel struct {
	Type   MOSType
	VTO    float64 // threshold voltage [V]
	KP     float64 // transconductance parameter [A/V²]
	N      float64 // subthreshold slope factor (typ. 1.2–1.6)
	LAMBDA float64 // channel-length modulation [1/V]
	COX    float64 // gate capacitance per area [F/m²]
	CGSO   float64 // gate-source overlap [F/m]
	CGDO   float64 // gate-drain overlap [F/m]
}

// DefaultEKVModel returns a usable generic EKV card for the polarity.
func DefaultEKVModel(t MOSType) EKVModel {
	return EKVModel{
		Type: t, VTO: 0.5, KP: 110e-6, N: 1.35, LAMBDA: 0.05,
		COX: 3.45e-3, CGSO: 2e-10, CGDO: 2e-10,
	}
}

// MOSFETEKV is a four-terminal MOSFET using the EKV interpolation
//
//	Id = 2·n·β·Vt² · (F((Vp−Vs)/Vt) − F((Vp−Vd)/Vt)) · (1 + λ·Vds)
//	F(u) = ln²(1 + e^(u/2)),  Vp = (Vg − VTO)/n
//
// with all voltages bulk-referenced.
type MOSFETEKV struct {
	Inst       string
	D, G, S, B int
	Model      EKVModel
	W, L       float64

	beta     float64
	cgs, cgd float64

	sdd, sdg, sds, sdb int
	ssd, ssg, sss, ssb int
	sgg, sgd, sgs      int
}

// NewMOSFETEKV returns an EKV MOSFET with geometry in meters.
func NewMOSFETEKV(name string, d, g, s, b int, model EKVModel, w, l float64) *MOSFETEKV {
	if w <= 0 {
		w = 1e-6
	}
	if l <= 0 {
		l = 1e-6
	}
	m := &MOSFETEKV{Inst: name, D: d, G: g, S: s, B: b, Model: model, W: w, L: l}
	m.beta = model.KP * w / l
	half := 0.5 * model.COX * w * l
	m.cgs = half + model.CGSO*w
	m.cgd = half + model.CGDO*w
	return m
}

// Name implements circuit.Device.
func (m *MOSFETEKV) Name() string { return m.Inst }

// Branches implements circuit.Device.
func (m *MOSFETEKV) Branches() int { return 0 }

// States implements circuit.Device.
func (m *MOSFETEKV) States() int { return 0 }

// Bind implements circuit.Device.
func (m *MOSFETEKV) Bind(int, int) {}

// Reserve implements circuit.Device.
func (m *MOSFETEKV) Reserve(r *circuit.Reserver) {
	m.sdd = r.J(m.D, m.D)
	m.sdg = r.J(m.D, m.G)
	m.sds = r.J(m.D, m.S)
	m.sdb = r.J(m.D, m.B)
	m.ssd = r.J(m.S, m.D)
	m.ssg = r.J(m.S, m.G)
	m.sss = r.J(m.S, m.S)
	m.ssb = r.J(m.S, m.B)
	m.sgg = r.J(m.G, m.G)
	m.sgd = r.J(m.G, m.D)
	m.sgs = r.J(m.G, m.S)
}

// softplusSq returns F(u) = ln²(1+e^(u/2)) and its derivative dF/du,
// numerically stable for all u.
func softplusSq(u float64) (f, df float64) {
	half := u / 2
	var sp, sig float64
	switch {
	case half > 40:
		sp = half
		sig = 1
	case half < -40:
		sp = math.Exp(half)
		sig = sp
	default:
		e := math.Exp(half)
		sp = math.Log1p(e)
		sig = e / (1 + e)
	}
	return sp * sp, sp * sig
}

// Eval implements circuit.Device.
func (m *MOSFETEKV) Eval(e *circuit.EvalCtx) {
	md := m.Model
	pol := 1.0
	if md.Type == PMOS {
		pol = -1
	}
	vt := VThermal
	// Bulk-referenced, polarity-normalized voltages.
	vg := pol * (e.V(m.G) - e.V(m.B))
	vs := pol * (e.V(m.S) - e.V(m.B))
	vd := pol * (e.V(m.D) - e.V(m.B))

	vp := (vg - md.VTO) / md.N
	fF, dfF := softplusSq((vp - vs) / vt)
	fR, dfR := softplusSq((vp - vd) / vt)

	i0 := 2 * md.N * m.beta * vt * vt
	vds := vd - vs
	cl := 1 + md.LAMBDA*math.Abs(vds)
	dclDvd := md.LAMBDA
	if vds < 0 {
		dclDvd = -md.LAMBDA
	}

	base := fF - fR
	id := i0 * base * cl // normalized current, flows D→S for positive vds

	// Partials in normalized bulk-referenced space; cl depends on
	// vds = vd − vs, giving the ± i0·base·dcl terms.
	dBaseDvg := (dfF - dfR) / (md.N * vt)
	dBaseDvs := -dfF / vt
	dBaseDvd := dfR / vt
	gm := i0 * dBaseDvg * cl
	gd := i0*dBaseDvd*cl + i0*base*dclDvd
	gs := i0*dBaseDvs*cl - i0*base*dclDvd

	gmin := e.Gmin
	id += gmin * vds
	gd += gmin
	gs -= gmin

	iDS := pol * id
	e.AddF(m.D, iDS)
	e.AddF(m.S, -iDS)

	// dI/dv(bulk) closes the chain rule: all normalized voltages are
	// referenced to the bulk, so the bulk column is −(gm+gd+gs)… with
	// gs defined as dI/dvs. Conductance stamps are polarity-invariant.
	gb := -(gm + gd + gs)
	e.AddJ(m.sdg, gm)
	e.AddJ(m.sdd, gd)
	e.AddJ(m.sds, gs)
	e.AddJ(m.sdb, gb)
	e.AddJ(m.ssg, -gm)
	e.AddJ(m.ssd, -gd)
	e.AddJ(m.sss, -gs)
	e.AddJ(m.ssb, -gb)

	if !e.Templated {
		m.StampLinearPart(e)
	}
}

// StampLinearPart implements circuit.LinearPartStamper: the gate
// capacitances are linear.
func (m *MOSFETEKV) StampLinearPart(e *circuit.EvalCtx) {
	stampTwoNodeCap(e, m.cgs, m.G, m.S, m.sgg, m.sgs, m.ssg, m.sss)
	stampTwoNodeCap(e, m.cgd, m.G, m.D, m.sgg, m.sgd, m.sdg, m.sdd)
}

// EvalQ implements circuit.ChargeEvaler: the gate capacitances are linear,
// so the charges need none of the interpolation function, and none is left
// to book where the template holds them.
func (m *MOSFETEKV) EvalQ(e *circuit.EvalCtx) {
	if e.Templated {
		return
	}
	capQ(e, m.cgs, m.G, m.S)
	capQ(e, m.cgd, m.G, m.D)
}

// capQ books the charge of a linear capacitor c between nodes p and n; a zero
// capacitance books nothing.
func capQ(e *circuit.EvalCtx, c float64, p, n int) {
	if c == 0 {
		return
	}
	q := c * (e.V(p) - e.V(n))
	e.AddQ(p, q)
	e.AddQ(n, -q)
}

// stampTwoNodeCap stamps a linear capacitor c between nodes p and n using
// the provided (p,p), (p,n), (n,p), (n,n) slots.
func stampTwoNodeCap(e *circuit.EvalCtx, c float64, p, n int, spp, spn, snp, snn int) {
	if c == 0 {
		return
	}
	capQ(e, c, p, n)
	e.AddJQ(spp, c)
	e.AddJQ(spn, -c)
	e.AddJQ(snp, -c)
	e.AddJQ(snn, c)
}
