package device

import (
	"math"

	"wavepipe/internal/circuit"
)

// Thermal voltage kT/q at 300 K.
const VThermal = 0.025852

// DiodeModel is a pn-junction diode model card (SPICE .MODEL D).
type DiodeModel struct {
	IS  float64 // saturation current [A]
	N   float64 // emission coefficient
	TT  float64 // transit time [s] (diffusion charge)
	CJ0 float64 // zero-bias junction capacitance [F]
	VJ  float64 // junction potential [V]
	M   float64 // grading coefficient
	FC  float64 // forward-bias depletion capacitance coefficient
}

// DefaultDiodeModel returns SPICE default diode parameters.
func DefaultDiodeModel() DiodeModel {
	return DiodeModel{IS: 1e-14, N: 1, TT: 0, CJ0: 0, VJ: 1, M: 0.5, FC: 0.5}
}

// normalize fills zero fields with defaults so partially specified model
// cards behave like SPICE.
func (m DiodeModel) normalize() DiodeModel {
	d := DefaultDiodeModel()
	if m.IS > 0 {
		d.IS = m.IS
	}
	if m.N > 0 {
		d.N = m.N
	}
	if m.TT > 0 {
		d.TT = m.TT
	}
	if m.CJ0 > 0 {
		d.CJ0 = m.CJ0
	}
	if m.VJ > 0 {
		d.VJ = m.VJ
	}
	if m.M > 0 {
		d.M = m.M
	}
	if m.FC > 0 {
		d.FC = m.FC
	}
	return d
}

// Diode is a pn-junction diode from P (anode) to N (cathode).
type Diode struct {
	Inst  string
	P, N  int
	Model DiodeModel
	Area  float64

	vcrit              float64
	dep                depletion
	state              int // state slot: limited junction voltage of the previous iterate
	spp, spn, snp, snn int
}

// NewDiode returns a diode instance; area scales IS, CJ0 (1 when zero).
func NewDiode(name string, p, n int, model DiodeModel, area float64) *Diode {
	if area <= 0 {
		area = 1
	}
	m := model.normalize()
	nvt := m.N * VThermal
	return &Diode{
		Inst: name, P: p, N: n, Model: m, Area: area,
		vcrit: nvt * math.Log(nvt/(math.Sqrt2*m.IS*area)),
		dep:   newDepletion(m.CJ0*area, m.VJ, m.M, m.FC),
	}
}

// Name implements circuit.Device.
func (d *Diode) Name() string { return d.Inst }

// Branches implements circuit.Device.
func (d *Diode) Branches() int { return 0 }

// States implements circuit.Device.
func (d *Diode) States() int { return 1 }

// Bind implements circuit.Device.
func (d *Diode) Bind(_, state0 int) { d.state = state0 }

// Reserve implements circuit.Device.
func (d *Diode) Reserve(r *circuit.Reserver) {
	d.spp = r.J(d.P, d.P)
	d.spn = r.J(d.P, d.N)
	d.snp = r.J(d.N, d.P)
	d.snn = r.J(d.N, d.N)
}

// pnjlim is the classic SPICE junction-voltage limiter: it prevents the
// Newton iterate from overshooting on the exponential characteristic.
func pnjlim(vnew, vold, vt, vcrit float64) float64 {
	if vnew <= vcrit || math.Abs(vnew-vold) <= 2*vt {
		return vnew
	}
	if vold > 0 {
		arg := 1 + (vnew-vold)/vt
		if arg > 0 {
			return vold + vt*math.Log(arg)
		}
		return vcrit
	}
	return vt * math.Log(vnew/vt)
}

// Eval implements circuit.Device.
func (d *Diode) Eval(e *circuit.EvalCtx) {
	m := d.Model
	nvt := m.N * VThermal
	vact := e.V(d.P) - e.V(d.N)
	v := vact
	if !e.NoLimit {
		v = pnjlim(vact, e.SPrev[d.state], nvt, d.vcrit)
		if v != vact {
			e.Limited = true
		}
	}
	e.SNext[d.state] = v

	id, gd := junction(v, m.IS*d.Area, nvt, e.Gmin)
	// Linearized around the limited voltage: the residual uses
	// i(v_lim) + g·(v_actual − v_lim) so F and J stay consistent.
	ieff := id + gd*(vact-v)

	e.AddF(d.P, ieff)
	e.AddF(d.N, -ieff)
	e.AddJ(d.spp, gd)
	e.AddJ(d.spn, -gd)
	e.AddJ(d.snp, -gd)
	e.AddJ(d.snn, gd)

	// Charge: depletion (with the standard forward-bias linearization
	// above FC·VJ) plus diffusion TT·id.
	if m.CJ0 > 0 || m.TT > 0 {
		qj, cj := d.dep.eval(v)
		q := qj + m.TT*id
		c := cj + m.TT*gd
		e.AddQ(d.P, q)
		e.AddQ(d.N, -q)
		e.AddJQ(d.spp, c)
		e.AddJQ(d.spn, -c)
		e.AddJQ(d.snp, -c)
		e.AddJQ(d.snn, c)
	}
}

// EvalQ implements circuit.ChargeEvaler.
func (d *Diode) EvalQ(e *circuit.EvalCtx) {
	m := d.Model
	v := e.V(d.P) - e.V(d.N)
	e.SNext[d.state] = v
	if m.CJ0 > 0 || m.TT > 0 {
		q, _ := d.dep.eval(v)
		if m.TT != 0 { // a zero transit time adds TT·id = ±0: see diffusion
			q += diffusion(m.TT, v, m.IS*d.Area, m.N*VThermal, e.Gmin)
		}
		e.AddQ(d.P, q)
		e.AddQ(d.N, -q)
	}
}
