package device

import (
	"math"

	"wavepipe/internal/circuit"
)

// MOSType distinguishes n-channel from p-channel devices.
type MOSType int

// MOS channel polarities.
const (
	NMOS MOSType = iota
	PMOS
)

// MOSModel is a Level-1 (Shichman–Hodges) MOSFET model card.
type MOSModel struct {
	Type   MOSType
	VTO    float64 // zero-bias threshold voltage [V] (positive for both types)
	KP     float64 // transconductance parameter [A/V²]
	GAMMA  float64 // body-effect coefficient [√V]
	PHI    float64 // surface potential [V]
	LAMBDA float64 // channel-length modulation [1/V]
	COX    float64 // gate oxide capacitance per area [F/m²]
	CGSO   float64 // gate-source overlap capacitance per width [F/m]
	CGDO   float64 // gate-drain overlap capacitance per width [F/m]
	CGBO   float64 // gate-bulk overlap capacitance per length [F/m]
	CBD    float64 // bulk-drain junction capacitance [F]
	CBS    float64 // bulk-source junction capacitance [F]
}

// DefaultMOSModel returns a usable generic model for the given polarity.
func DefaultMOSModel(t MOSType) MOSModel {
	return MOSModel{
		Type: t, VTO: 0.7, KP: 110e-6, GAMMA: 0.4, PHI: 0.65,
		LAMBDA: 0.05, COX: 3.45e-3, CGSO: 2e-10, CGDO: 2e-10, CGBO: 1e-10,
	}
}

// MOSFET is a four-terminal Level-1 MOSFET. The drain current uses the
// Shichman–Hodges equations with channel-length modulation and body effect;
// the gate capacitances use the linear Cox·W·L split plus overlaps
// (substitution for Meyer/BSIM charge models documented in DESIGN.md).
type MOSFET struct {
	Inst       string
	D, G, S, B int
	Model      MOSModel
	W, L       float64

	beta          float64
	sphi          float64 // √PHI
	cgs, cgd, cgb float64
	// Jacobian slots: rows D and S against columns D, G, S, B; gate and
	// bulk capacitive rows against their coupled columns.
	sdd, sdg, sds, sdb int
	ssd, ssg, sss, ssb int
	sgg, sgd, sgs, sgb int
	sbg, sbb           int
	sbdD, sbdB, sdbB2  int
	sbsS, sbsB, ssbB2  int
}

// NewMOSFET returns a MOSFET instance with the given geometry (meters).
func NewMOSFET(name string, d, g, s, b int, model MOSModel, w, l float64) *MOSFET {
	if w <= 0 {
		w = 1e-6
	}
	if l <= 0 {
		l = 1e-6
	}
	m := &MOSFET{Inst: name, D: d, G: g, S: s, B: b, Model: model, W: w, L: l}
	m.beta = model.KP * w / l
	m.sphi = math.Sqrt(model.PHI)
	half := 0.5 * model.COX * w * l
	m.cgs = half + model.CGSO*w
	m.cgd = half + model.CGDO*w
	m.cgb = model.CGBO * l
	return m
}

// Name implements circuit.Device.
func (m *MOSFET) Name() string { return m.Inst }

// Branches implements circuit.Device.
func (m *MOSFET) Branches() int { return 0 }

// States implements circuit.Device.
func (m *MOSFET) States() int { return 0 }

// Bind implements circuit.Device.
func (m *MOSFET) Bind(int, int) {}

// Reserve implements circuit.Device.
func (m *MOSFET) Reserve(r *circuit.Reserver) {
	m.sdd = r.J(m.D, m.D)
	m.sdg = r.J(m.D, m.G)
	m.sds = r.J(m.D, m.S)
	m.sdb = r.J(m.D, m.B)
	m.ssd = r.J(m.S, m.D)
	m.ssg = r.J(m.S, m.G)
	m.sss = r.J(m.S, m.S)
	m.ssb = r.J(m.S, m.B)
	// Capacitive couplings.
	m.sgg = r.J(m.G, m.G)
	m.sgd = r.J(m.G, m.D)
	m.sgs = r.J(m.G, m.S)
	m.sgb = r.J(m.G, m.B)
	m.sbg = r.J(m.B, m.G)
	m.sbb = r.J(m.B, m.B)
	m.sbdD = r.J(m.B, m.D)
	m.sbdB = r.J(m.D, m.B) // shared with sdb; Reserve dedups
	m.sdbB2 = r.J(m.D, m.D)
	m.sbsS = r.J(m.B, m.S)
	m.sbsB = r.J(m.S, m.B)
	m.ssbB2 = r.J(m.S, m.S)
}

// ids computes the normalized (NMOS-convention) channel current and its
// derivatives at the given vgs, vds (>= 0), vbs.
func (m *MOSFET) ids(vgs, vds, vbs float64) (id, gm, gds, gmbs float64) {
	md := m.Model
	vth := md.VTO
	dvth := 0.0
	if md.GAMMA != 0 {
		// SPICE3 mos1 body effect: square root for reverse bias, linear
		// extension (C1 at vbs = 0) for forward bias, clamped at zero.
		sphi := m.sphi
		var sarg, dsarg float64
		if vbs <= 0 {
			sarg = math.Sqrt(md.PHI - vbs)
			dsarg = -1 / (2 * sarg)
		} else {
			sarg = sphi - vbs/(2*sphi)
			dsarg = -1 / (2 * sphi)
			if sarg < 0 {
				sarg, dsarg = 0, 0
			}
		}
		vth += md.GAMMA * (sarg - sphi)
		dvth = md.GAMMA * dsarg // dVth/dvbs
	}
	vgst := vgs - vth
	if vgst <= 0 {
		return 0, 0, 0, 0
	}
	cl := 1 + md.LAMBDA*vds
	if vds < vgst {
		// Linear (triode) region.
		id = m.beta * (vgst - vds/2) * vds * cl
		gm = m.beta * vds * cl
		gds = m.beta*(vgst-vds)*cl + m.beta*(vgst-vds/2)*vds*md.LAMBDA
	} else {
		// Saturation.
		id = 0.5 * m.beta * vgst * vgst * cl
		gm = m.beta * vgst * cl
		gds = 0.5 * m.beta * vgst * vgst * md.LAMBDA
	}
	gmbs = -gm * dvth
	return id, gm, gds, gmbs
}

// Eval implements circuit.Device.
func (m *MOSFET) Eval(e *circuit.EvalCtx) {
	pol := 1.0
	if m.Model.Type == PMOS {
		pol = -1
	}
	// u-space voltages (sign-normalized so the equations see an NMOS).
	ud := pol * e.V(m.D)
	ug := pol * e.V(m.G)
	us := pol * e.V(m.S)
	ub := pol * e.V(m.B)

	// Source/drain symmetry: operate on the terminal pair so uds >= 0.
	effD, effS := m.D, m.S
	uD, uS := ud, us
	if ud < us {
		effD, effS = m.S, m.D
		uD, uS = us, ud
	}
	vgs := ug - uS
	vds := uD - uS
	vbs := ub - uS

	id, gm, gds, gmbs := m.ids(vgs, vds, vbs)
	gds += e.Gmin // drain-source shunt keeps the matrix nonsingular in cutoff
	id += e.Gmin * vds
	iDS := pol * id // actual current flowing effD -> effS

	e.AddF(effD, iDS)
	e.AddF(effS, -iDS)

	// Conductance stamps are polarity-independent (the two sign flips
	// cancel). Map the effective-terminal derivatives onto instance slots.
	gss := gm + gds + gmbs
	if effD == m.D {
		e.AddJ(m.sdg, gm)
		e.AddJ(m.sdd, gds)
		e.AddJ(m.sdb, gmbs)
		e.AddJ(m.sds, -gss)
		e.AddJ(m.ssg, -gm)
		e.AddJ(m.ssd, -gds)
		e.AddJ(m.ssb, -gmbs)
		e.AddJ(m.sss, gss)
	} else {
		// Swapped: effD is the S terminal, effS is the D terminal.
		e.AddJ(m.ssg, gm)
		e.AddJ(m.sss, gds)
		e.AddJ(m.ssb, gmbs)
		e.AddJ(m.ssd, -gss)
		e.AddJ(m.sdg, -gm)
		e.AddJ(m.sds, -gds)
		e.AddJ(m.sdb, -gmbs)
		e.AddJ(m.sdd, gss)
	}

	// Linear gate and junction capacitances.
	stampTwoNodeCap(e, m.cgs, m.G, m.S, m.sgg, m.sgs, m.sgsT(), m.sss)
	stampTwoNodeCap(e, m.cgd, m.G, m.D, m.sgg, m.sgd, m.sgdT(), m.sdd)
	stampTwoNodeCap(e, m.cgb, m.G, m.B, m.sgg, m.sgb, m.sbg, m.sbb)
	if m.Model.CBD > 0 {
		stampTwoNodeCap(e, m.Model.CBD, m.B, m.D, m.sbb, m.sbdD, m.sbdB, m.sdbB2)
	}
	if m.Model.CBS > 0 {
		stampTwoNodeCap(e, m.Model.CBS, m.B, m.S, m.sbb, m.sbsS, m.sbsB, m.ssbB2)
	}
}

// EvalQ implements circuit.ChargeEvaler: the model's capacitances are
// linear, so its charges need no channel current.
func (m *MOSFET) EvalQ(e *circuit.EvalCtx) {
	capQ(e, m.cgs, m.G, m.S)
	capQ(e, m.cgd, m.G, m.D)
	capQ(e, m.cgb, m.G, m.B)
	if m.Model.CBD > 0 {
		capQ(e, m.Model.CBD, m.B, m.D)
	}
	if m.Model.CBS > 0 {
		capQ(e, m.Model.CBS, m.B, m.S)
	}
}

// sgsT and sgdT return the transposed gate-coupling slots, which coincide
// with rows S and D against column G.
func (m *MOSFET) sgsT() int { return m.ssg }
func (m *MOSFET) sgdT() int { return m.sdg }
