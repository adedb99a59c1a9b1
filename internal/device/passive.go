package device

import (
	"math"
	"math/cmplx"

	"wavepipe/internal/circuit"
)

// Resistor is a linear two-terminal resistor between nodes P and N.
type Resistor struct {
	Inst string
	P, N int
	R    float64

	g                  float64
	spp, spn, snp, snn int
}

// NewResistor returns a resistor instance. R must be nonzero.
func NewResistor(name string, p, n int, r float64) *Resistor {
	return &Resistor{Inst: name, P: p, N: n, R: r, g: 1 / r}
}

// Name implements circuit.Device.
func (d *Resistor) Name() string { return d.Inst }

// Branches implements circuit.Device.
func (d *Resistor) Branches() int { return 0 }

// States implements circuit.Device.
func (d *Resistor) States() int { return 0 }

// Bind implements circuit.Device.
func (d *Resistor) Bind(int, int) {}

// Reserve implements circuit.Device.
func (d *Resistor) Reserve(r *circuit.Reserver) {
	d.spp = r.J(d.P, d.P)
	d.spn = r.J(d.P, d.N)
	d.snp = r.J(d.N, d.P)
	d.snn = r.J(d.N, d.N)
}

// SensParams exposes the resistance for DC sensitivity analysis.
func (d *Resistor) SensParams() ([]string, []float64) {
	return []string{"r"}, []float64{d.R}
}

// AddDResidual accumulates ∂R/∂r: the resistor current g·(vp−vn) has
// ∂/∂r = −(vp−vn)/r².
func (d *Resistor) AddDResidual(param string, x, out []float64) {
	if param != "r" {
		return
	}
	vp, vn := 0.0, 0.0
	if d.P != circuit.Ground {
		vp = x[d.P]
	}
	if d.N != circuit.Ground {
		vn = x[d.N]
	}
	di := -(vp - vn) / (d.R * d.R)
	if d.P != circuit.Ground {
		out[d.P] += di
	}
	if d.N != circuit.Ground {
		out[d.N] -= di
	}
}

// Eval implements circuit.Device.
func (d *Resistor) Eval(e *circuit.EvalCtx) {
	v := e.V(d.P) - e.V(d.N)
	i := d.g * v
	e.AddF(d.P, i)
	e.AddF(d.N, -i)
	e.AddJ(d.spp, d.g)
	e.AddJ(d.spn, -d.g)
	e.AddJ(d.snp, -d.g)
	e.AddJ(d.snn, d.g)
}

// Capacitor is a linear two-terminal capacitor.
type Capacitor struct {
	Inst string
	P, N int
	C    float64

	spp, spn, snp, snn int
}

// NewCapacitor returns a capacitor instance.
func NewCapacitor(name string, p, n int, c float64) *Capacitor {
	return &Capacitor{Inst: name, P: p, N: n, C: c}
}

// Name implements circuit.Device.
func (d *Capacitor) Name() string { return d.Inst }

// Branches implements circuit.Device.
func (d *Capacitor) Branches() int { return 0 }

// States implements circuit.Device.
func (d *Capacitor) States() int { return 0 }

// Bind implements circuit.Device.
func (d *Capacitor) Bind(int, int) {}

// Reserve implements circuit.Device.
func (d *Capacitor) Reserve(r *circuit.Reserver) {
	d.spp = r.J(d.P, d.P)
	d.spn = r.J(d.P, d.N)
	d.snp = r.J(d.N, d.P)
	d.snn = r.J(d.N, d.N)
}

// Eval implements circuit.Device.
func (d *Capacitor) Eval(e *circuit.EvalCtx) {
	capQ(e, d.C, d.P, d.N)
	e.AddJQ(d.spp, d.C)
	e.AddJQ(d.spn, -d.C)
	e.AddJQ(d.snp, -d.C)
	e.AddJQ(d.snn, d.C)
}

// Inductor is a linear inductor with a branch current unknown. The branch
// equation is v_p − v_n − dφ/dt = 0 with φ = L·i.
type Inductor struct {
	Inst string
	P, N int
	L    float64

	br                 int
	spb, snb, sbp, sbn int
	sbb                int
}

// NewInductor returns an inductor instance.
func NewInductor(name string, p, n int, l float64) *Inductor {
	return &Inductor{Inst: name, P: p, N: n, L: l}
}

// Name implements circuit.Device.
func (d *Inductor) Name() string { return d.Inst }

// Branches implements circuit.Device.
func (d *Inductor) Branches() int { return 1 }

// States implements circuit.Device.
func (d *Inductor) States() int { return 0 }

// Bind implements circuit.Device.
func (d *Inductor) Bind(branch0, _ int) { d.br = branch0 }

// BranchIndex returns the solution-vector index of the inductor current.
func (d *Inductor) BranchIndex() int { return d.br }

// Reserve implements circuit.Device.
func (d *Inductor) Reserve(r *circuit.Reserver) {
	d.spb = r.J(d.P, d.br)
	d.snb = r.J(d.N, d.br)
	d.sbp = r.J(d.br, d.P)
	d.sbn = r.J(d.br, d.N)
	d.sbb = r.J(d.br, d.br)
}

// Eval implements circuit.Device.
func (d *Inductor) Eval(e *circuit.EvalCtx) {
	i := e.X[d.br]
	// KCL: current i leaves P, enters N.
	e.AddF(d.P, i)
	e.AddF(d.N, -i)
	e.AddJ(d.spb, 1)
	e.AddJ(d.snb, -1)
	// Branch: (v_p − v_n) − dφ/dt = 0 → F = v_p − v_n, Q = −L·i.
	e.AddF(d.br, e.V(d.P)-e.V(d.N))
	e.AddQ(d.br, -d.L*i)
	e.AddJ(d.sbp, 1)
	e.AddJ(d.sbn, -1)
	e.AddJQ(d.sbb, -d.L)
}

// VSource is an independent voltage source with a branch current unknown.
// ACMag/ACPhase carry the small-signal stimulus for AC analysis (SPICE
// "AC mag phase" specification; phase in degrees).
type VSource struct {
	Inst    string
	P, N    int
	W       Waveform
	ACMag   float64
	ACPhase float64

	br                 int
	spb, snb, sbp, sbn int
}

// NewVSource returns a voltage source driving the given waveform.
func NewVSource(name string, p, n int, w Waveform) *VSource {
	return &VSource{Inst: name, P: p, N: n, W: w}
}

// Name implements circuit.Device.
func (d *VSource) Name() string { return d.Inst }

// Branches implements circuit.Device.
func (d *VSource) Branches() int { return 1 }

// States implements circuit.Device.
func (d *VSource) States() int { return 0 }

// Bind implements circuit.Device.
func (d *VSource) Bind(branch0, _ int) { d.br = branch0 }

// BranchIndex returns the solution-vector index of the source current.
func (d *VSource) BranchIndex() int { return d.br }

// SetDC replaces the waveform with a constant (DC sweep support). Not safe
// while a simulation of the same circuit runs concurrently.
func (d *VSource) SetDC(v float64) { d.W = DC(v) }

// Breakpoints exposes the waveform's slope discontinuities to the transient
// engines.
func (d *VSource) Breakpoints(stop float64) []float64 { return d.W.Breakpoints(stop) }

// SensParams exposes the DC source value for sensitivity analysis (only
// meaningful for DC-valued waveforms; time-varying sources report their
// t = 0 value).
func (d *VSource) SensParams() ([]string, []float64) {
	return []string{"dc"}, []float64{d.W.At(0)}
}

// AddDResidual accumulates ∂R/∂V: the branch equation v_p − v_n − V has
// derivative −1 in its own row.
func (d *VSource) AddDResidual(param string, _, out []float64) {
	if param == "dc" {
		out[d.br] -= 1
	}
}

// StampAC implements circuit.ACSource: the branch equation's right-hand
// side receives the phasor stimulus.
func (d *VSource) StampAC(b []complex128) {
	if d.ACMag == 0 {
		return
	}
	b[d.br] += cmplx.Rect(d.ACMag, d.ACPhase*math.Pi/180)
}

// Reserve implements circuit.Device.
func (d *VSource) Reserve(r *circuit.Reserver) {
	d.spb = r.J(d.P, d.br)
	d.snb = r.J(d.N, d.br)
	d.sbp = r.J(d.br, d.P)
	d.sbn = r.J(d.br, d.N)
}

// Eval implements circuit.Device.
func (d *VSource) Eval(e *circuit.EvalCtx) {
	i := e.X[d.br]
	e.AddF(d.P, i)
	e.AddF(d.N, -i)
	e.AddJ(d.spb, 1)
	e.AddJ(d.snb, -1)
	// Branch: v_p − v_n = V(t).
	e.AddF(d.br, e.V(d.P)-e.V(d.N))
	e.AddB(d.br, d.W.At(e.T))
	e.AddJ(d.sbp, 1)
	e.AddJ(d.sbn, -1)
}

// ISource is an independent current source pushing current from P to N
// through itself (SPICE convention). ACMag/ACPhase carry the small-signal
// stimulus for AC analysis.
type ISource struct {
	Inst    string
	P, N    int
	W       Waveform
	ACMag   float64
	ACPhase float64
}

// NewISource returns a current source driving the given waveform.
func NewISource(name string, p, n int, w Waveform) *ISource {
	return &ISource{Inst: name, P: p, N: n, W: w}
}

// Name implements circuit.Device.
func (d *ISource) Name() string { return d.Inst }

// Branches implements circuit.Device.
func (d *ISource) Branches() int { return 0 }

// States implements circuit.Device.
func (d *ISource) States() int { return 0 }

// Bind implements circuit.Device.
func (d *ISource) Bind(int, int) {}

// Reserve implements circuit.Device.
func (d *ISource) Reserve(*circuit.Reserver) {}

// SetDC replaces the waveform with a constant (DC sweep support). Not safe
// while a simulation of the same circuit runs concurrently.
func (d *ISource) SetDC(v float64) { d.W = DC(v) }

// Breakpoints exposes the waveform's slope discontinuities to the transient
// engines.
func (d *ISource) Breakpoints(stop float64) []float64 { return d.W.Breakpoints(stop) }

// SensParams exposes the DC source value for sensitivity analysis.
func (d *ISource) SensParams() ([]string, []float64) {
	return []string{"dc"}, []float64{d.W.At(0)}
}

// AddDResidual accumulates ∂R/∂I for the injected current.
func (d *ISource) AddDResidual(param string, _, out []float64) {
	if param != "dc" {
		return
	}
	if d.P != circuit.Ground {
		out[d.P] += 1
	}
	if d.N != circuit.Ground {
		out[d.N] -= 1
	}
}

// StampAC implements circuit.ACSource.
func (d *ISource) StampAC(b []complex128) {
	if d.ACMag == 0 {
		return
	}
	i := cmplx.Rect(d.ACMag, d.ACPhase*math.Pi/180)
	if d.P != circuit.Ground {
		b[d.P] -= i
	}
	if d.N != circuit.Ground {
		b[d.N] += i
	}
}

// Eval implements circuit.Device.
func (d *ISource) Eval(e *circuit.EvalCtx) {
	i := d.W.At(e.T)
	e.AddB(d.P, -i)
	e.AddB(d.N, i)
}

// VCVS is a voltage-controlled voltage source (SPICE E element):
// v(P) − v(N) = Gain · (v(CP) − v(CN)), with a branch current unknown.
type VCVS struct {
	Inst         string
	P, N, CP, CN int
	Gain         float64

	br                             int
	spb, snb, sbp, sbn, sbcp, sbcn int
}

// NewVCVS returns a VCVS instance.
func NewVCVS(name string, p, n, cp, cn int, gain float64) *VCVS {
	return &VCVS{Inst: name, P: p, N: n, CP: cp, CN: cn, Gain: gain}
}

// Name implements circuit.Device.
func (d *VCVS) Name() string { return d.Inst }

// Branches implements circuit.Device.
func (d *VCVS) Branches() int { return 1 }

// States implements circuit.Device.
func (d *VCVS) States() int { return 0 }

// Bind implements circuit.Device.
func (d *VCVS) Bind(branch0, _ int) { d.br = branch0 }

// Reserve implements circuit.Device.
func (d *VCVS) Reserve(r *circuit.Reserver) {
	d.spb = r.J(d.P, d.br)
	d.snb = r.J(d.N, d.br)
	d.sbp = r.J(d.br, d.P)
	d.sbn = r.J(d.br, d.N)
	d.sbcp = r.J(d.br, d.CP)
	d.sbcn = r.J(d.br, d.CN)
}

// Eval implements circuit.Device.
func (d *VCVS) Eval(e *circuit.EvalCtx) {
	i := e.X[d.br]
	e.AddF(d.P, i)
	e.AddF(d.N, -i)
	e.AddJ(d.spb, 1)
	e.AddJ(d.snb, -1)
	e.AddF(d.br, e.V(d.P)-e.V(d.N)-d.Gain*(e.V(d.CP)-e.V(d.CN)))
	e.AddJ(d.sbp, 1)
	e.AddJ(d.sbn, -1)
	e.AddJ(d.sbcp, -d.Gain)
	e.AddJ(d.sbcn, d.Gain)
}

// VCCS is a voltage-controlled current source (SPICE G element): a current
// Gm · (v(CP) − v(CN)) flows from P to N.
type VCCS struct {
	Inst         string
	P, N, CP, CN int
	Gm           float64

	spcp, spcn, sncp, sncn int
}

// NewVCCS returns a VCCS instance.
func NewVCCS(name string, p, n, cp, cn int, gm float64) *VCCS {
	return &VCCS{Inst: name, P: p, N: n, CP: cp, CN: cn, Gm: gm}
}

// Name implements circuit.Device.
func (d *VCCS) Name() string { return d.Inst }

// Branches implements circuit.Device.
func (d *VCCS) Branches() int { return 0 }

// States implements circuit.Device.
func (d *VCCS) States() int { return 0 }

// Bind implements circuit.Device.
func (d *VCCS) Bind(int, int) {}

// Reserve implements circuit.Device.
func (d *VCCS) Reserve(r *circuit.Reserver) {
	d.spcp = r.J(d.P, d.CP)
	d.spcn = r.J(d.P, d.CN)
	d.sncp = r.J(d.N, d.CP)
	d.sncn = r.J(d.N, d.CN)
}

// Eval implements circuit.Device.
func (d *VCCS) Eval(e *circuit.EvalCtx) {
	i := d.Gm * (e.V(d.CP) - e.V(d.CN))
	e.AddF(d.P, i)
	e.AddF(d.N, -i)
	e.AddJ(d.spcp, d.Gm)
	e.AddJ(d.spcn, -d.Gm)
	e.AddJ(d.sncp, -d.Gm)
	e.AddJ(d.sncn, d.Gm)
}
