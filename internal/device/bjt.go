package device

import (
	"math"

	"wavepipe/internal/circuit"
)

// BJTModel is a bipolar-junction-transistor model card: Ebers–Moll
// transport formulation with forward/reverse beta, Early effect and
// junction/diffusion charge storage (the Gummel–Poon subset SPICE calls
// level 1 without high-injection effects).
type BJTModel struct {
	Type BJTType
	IS   float64 // transport saturation current [A]
	BF   float64 // forward beta
	BR   float64 // reverse beta
	NF   float64 // forward emission coefficient
	NR   float64 // reverse emission coefficient
	VAF  float64 // forward Early voltage [V] (0 disables)
	TF   float64 // forward transit time [s]
	TR   float64 // reverse transit time [s]
	CJE  float64 // zero-bias B-E depletion capacitance [F]
	VJE  float64 // B-E junction potential [V]
	MJE  float64 // B-E grading coefficient
	CJC  float64 // zero-bias B-C depletion capacitance [F]
	VJC  float64 // B-C junction potential [V]
	MJC  float64 // B-C grading coefficient
	FC   float64 // forward-bias depletion coefficient
}

// BJTType distinguishes NPN from PNP devices.
type BJTType int

// BJT polarities.
const (
	NPN BJTType = iota
	PNP
)

// DefaultBJTModel returns SPICE default BJT parameters for the polarity.
func DefaultBJTModel(t BJTType) BJTModel {
	return BJTModel{
		Type: t, IS: 1e-16, BF: 100, BR: 1, NF: 1, NR: 1,
		VJE: 0.75, MJE: 0.33, VJC: 0.75, MJC: 0.33, FC: 0.5,
	}
}

func (m BJTModel) normalize() BJTModel {
	d := DefaultBJTModel(m.Type)
	if m.IS > 0 {
		d.IS = m.IS
	}
	if m.BF > 0 {
		d.BF = m.BF
	}
	if m.BR > 0 {
		d.BR = m.BR
	}
	if m.NF > 0 {
		d.NF = m.NF
	}
	if m.NR > 0 {
		d.NR = m.NR
	}
	d.VAF = m.VAF
	d.TF = m.TF
	d.TR = m.TR
	d.CJE = m.CJE
	d.CJC = m.CJC
	if m.VJE > 0 {
		d.VJE = m.VJE
	}
	if m.MJE > 0 {
		d.MJE = m.MJE
	}
	if m.VJC > 0 {
		d.VJC = m.VJC
	}
	if m.MJC > 0 {
		d.MJC = m.MJC
	}
	if m.FC > 0 {
		d.FC = m.FC
	}
	return d
}

// BJT is a three-terminal bipolar transistor (collector, base, emitter).
type BJT struct {
	Inst    string
	C, B, E int
	Model   BJTModel
	Area    float64

	vcrit        float64
	depBE, depBC depletion
	state        int // two slots: limited vbe, limited vbc

	scc, scb, sce int
	sbc, sbb, sbe int
	sec, seb, see int
}

// NewBJT returns a BJT instance; area scales IS and the junction caps.
func NewBJT(name string, c, b, e int, model BJTModel, area float64) *BJT {
	if area <= 0 {
		area = 1
	}
	m := model.normalize()
	nvt := m.NF * VThermal
	return &BJT{
		Inst: name, C: c, B: b, E: e, Model: m, Area: area,
		vcrit: nvt * math.Log(nvt/(math.Sqrt2*m.IS*area)),
		depBE: newDepletion(m.CJE*area, m.VJE, m.MJE, m.FC),
		depBC: newDepletion(m.CJC*area, m.VJC, m.MJC, m.FC),
	}
}

// Name implements circuit.Device.
func (d *BJT) Name() string { return d.Inst }

// Branches implements circuit.Device.
func (d *BJT) Branches() int { return 0 }

// States implements circuit.Device.
func (d *BJT) States() int { return 2 }

// Bind implements circuit.Device.
func (d *BJT) Bind(_, state0 int) { d.state = state0 }

// Reserve implements circuit.Device.
func (d *BJT) Reserve(r *circuit.Reserver) {
	d.scc = r.J(d.C, d.C)
	d.scb = r.J(d.C, d.B)
	d.sce = r.J(d.C, d.E)
	d.sbc = r.J(d.B, d.C)
	d.sbb = r.J(d.B, d.B)
	d.sbe = r.J(d.B, d.E)
	d.sec = r.J(d.E, d.C)
	d.seb = r.J(d.E, d.B)
	d.see = r.J(d.E, d.E)
}

// expNeg5 is the slope of the reverse-bias junction branch: below −5·n·Vt
// the exponential is held at its value there.
var expNeg5 = math.Exp(-5)

// junction returns the diode current and conductance of one junction with
// the device's gmin folded in.
func junction(v, is, nvt, gmin float64) (i, g float64) {
	if v >= -5*nvt {
		ev := math.Exp(v / nvt)
		i = is * (ev - 1)
		g = is * ev / nvt
	} else {
		i = -is
		g = is / nvt * expNeg5
	}
	return i + gmin*v, g + gmin
}

// diffusion returns the diffusion charge tt·i of a junction at v — for a
// charge pass, which has no current in hand. Callers skip it when tt is zero:
// the product of zero and a finite current is a zero of either sign, and
// adding one to a charge, or to a row of Q (which starts a pass at +0 and so
// never holds −0), changes no bit.
func diffusion(tt, v, is, nvt, gmin float64) float64 {
	i, _ := junction(v, is, nvt, gmin)
	return tt * i
}

// depletion is the standard SPICE depletion-charge model of one junction,
// with everything that depends on the model card alone — the forward-bias
// branch point FC·VJ and its F1, F2, F3 coefficients, two powers — evaluated
// once, at construction.
type depletion struct {
	cj0, vj, mj     float64
	fcv, f1, f2, f3 float64
}

func newDepletion(cj0, vj, mj, fc float64) depletion {
	return depletion{
		cj0: cj0, vj: vj, mj: mj,
		fcv: fc * vj,
		f1:  vj / (1 - mj) * (1 - math.Pow(1-fc, 1-mj)),
		f2:  math.Pow(1-fc, 1+mj),
		f3:  1 - fc*(1+mj),
	}
}

// eval returns the depletion charge and capacitance at junction voltage v.
func (j *depletion) eval(v float64) (q, c float64) {
	if j.cj0 == 0 {
		return 0, 0
	}
	if v < j.fcv {
		arg := 1 - v/j.vj
		s := math.Pow(arg, -j.mj)
		return j.cj0 * j.vj / (1 - j.mj) * (1 - arg*s), j.cj0 * s
	}
	q = j.cj0 * (j.f1 + (j.f3*(v-j.fcv)+j.mj/(2*j.vj)*(v*v-j.fcv*j.fcv))/j.f2)
	c = j.cj0 / j.f2 * (j.f3 + j.mj*v/j.vj)
	return q, c
}

// Eval implements circuit.Device.
func (d *BJT) Eval(e *circuit.EvalCtx) {
	m := d.Model
	pol := 1.0
	if m.Type == PNP {
		pol = -1
	}
	is := m.IS * d.Area
	nvtF := m.NF * VThermal
	nvtR := m.NR * VThermal

	// Junction voltages in polarity-normalized space, limited per junction.
	vbeAct := pol * (e.V(d.B) - e.V(d.E))
	vbcAct := pol * (e.V(d.B) - e.V(d.C))
	vbe, vbc := vbeAct, vbcAct
	if !e.NoLimit {
		vbe = pnjlim(vbeAct, e.SPrev[d.state], nvtF, d.vcrit)
		vbc = pnjlim(vbcAct, e.SPrev[d.state+1], nvtR, d.vcrit)
		if vbe != vbeAct || vbc != vbcAct {
			e.Limited = true
		}
	}
	e.SNext[d.state] = vbe
	e.SNext[d.state+1] = vbc

	// Transport current and the two base junction currents.
	icc, gif := junction(vbe, is, nvtF, e.Gmin)
	iec, gir := junction(vbc, is, nvtR, e.Gmin)
	ibe := icc / m.BF
	gbe := gif / m.BF
	ibc := iec / m.BR
	gbc := gir / m.BR

	// Early effect scales the transport term with the B-C reverse bias.
	early := 1.0
	dEarly := 0.0 // d(early)/dvbc
	if m.VAF > 0 {
		early = 1 - vbc/m.VAF
		if early < 0.1 {
			early = 0.1
		} else {
			dEarly = -1 / m.VAF
		}
	}
	it := (icc - iec) * early
	gmf := gif * early                  // dIt/dvbe
	gmr := gir*early - (icc-iec)*dEarly // -dIt/dvbc (note the sign below)

	ic := it - ibc
	ib := ibe + ibc

	// Consistent linearization around the limited junction voltages.
	dbe := vbeAct - vbe
	dbc := vbcAct - vbc
	icEff := ic + gmf*dbe - (gmr+gbc)*dbc
	ibEff := ib + gbe*dbe + gbc*dbc
	ieEff := -(icEff + ibEff)

	e.AddF(d.C, pol*icEff)
	e.AddF(d.B, pol*ibEff)
	e.AddF(d.E, pol*ieEff)

	// Jacobian in actual node space (polarity factors cancel):
	// Ic = It(vbe,vbc) − Ibc(vbc); Ib = Ibe(vbe) + Ibc(vbc);
	// vbe = vb−ve, vbc = vb−vc.
	e.AddJ(d.scc, gmr+gbc)
	e.AddJ(d.scb, gmf-gmr-gbc)
	e.AddJ(d.sce, -gmf)
	e.AddJ(d.sbc, -gbc)
	e.AddJ(d.sbb, gbe+gbc)
	e.AddJ(d.sbe, -gbe)
	e.AddJ(d.sec, -gmr)
	e.AddJ(d.seb, -(gbe + gmf - gmr))
	e.AddJ(d.see, gbe+gmf)

	// Charge storage: diffusion (TF·icc, TR·iec) plus depletion, stamped
	// as capacitors B-E and B-C in actual node space (q flips with pol,
	// matching the flipped junction voltages; capacitances stay positive).
	qje, cje := d.depBE.eval(vbe)
	qjc, cjc := d.depBC.eval(vbc)
	qbe := m.TF*icc + qje
	cbe := m.TF*gif + cje
	qbc := m.TR*iec + qjc
	cbc := m.TR*gir + cjc

	e.AddQ(d.B, pol*(qbe+qbc))
	e.AddQ(d.E, -pol*qbe)
	e.AddQ(d.C, -pol*qbc)
	e.AddJQ(d.sbb, cbe+cbc)
	e.AddJQ(d.sbe, -cbe)
	e.AddJQ(d.sbc, -cbc)
	e.AddJQ(d.seb, -cbe)
	e.AddJQ(d.see, cbe)
	e.AddJQ(d.scb, -cbc)
	e.AddJQ(d.scc, cbc)
}

// EvalQ implements circuit.ChargeEvaler.
func (d *BJT) EvalQ(e *circuit.EvalCtx) {
	m := d.Model
	pol := 1.0
	if m.Type == PNP {
		pol = -1
	}
	vbe := pol * (e.V(d.B) - e.V(d.E))
	vbc := pol * (e.V(d.B) - e.V(d.C))
	e.SNext[d.state] = vbe
	e.SNext[d.state+1] = vbc

	qbe, _ := d.depBE.eval(vbe)
	qbc, _ := d.depBC.eval(vbc)
	is := m.IS * d.Area
	if m.TF != 0 {
		qbe = diffusion(m.TF, vbe, is, m.NF*VThermal, e.Gmin) + qbe
	}
	if m.TR != 0 {
		qbc = diffusion(m.TR, vbc, is, m.NR*VThermal, e.Gmin) + qbc
	}
	e.AddQ(d.B, pol*(qbe+qbc))
	e.AddQ(d.E, -pol*qbe)
	e.AddQ(d.C, -pol*qbc)
}
