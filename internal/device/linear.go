package device

import "wavepipe/internal/circuit"

// LinearStamps implementations: these devices promise the stamp template
// (internal/circuit/incremental.go) that their F and Q stamps are exactly
// linear in the iterate with constant Jacobians, so their contribution can
// live in the template a linear circuit assembles from. The returned flag
// reports whether the device stamps the source vector B: independent
// sources do (their B is time-varying and re-stamped every load); pure
// passives and controlled sources never touch B.
//
// This is a correctness promise. The finite-difference Jacobian checker in
// jacobian_test.go and the template tests of internal/circuit are the safety
// net; a device whose stamps depend nonlinearly on x (or on time outside B)
// must not implement this interface.

// LinearStamps implements circuit.LinearStamper.
func (d *Resistor) LinearStamps() bool { return false }

// LinearStamps implements circuit.LinearStamper.
func (d *Capacitor) LinearStamps() bool { return false }

// LinearStamps implements circuit.LinearStamper.
func (d *Inductor) LinearStamps() bool { return false }

// LinearStamps implements circuit.LinearStamper.
func (d *VSource) LinearStamps() bool { return true }

// LinearStamps implements circuit.LinearStamper.
func (d *ISource) LinearStamps() bool { return true }

// LinearStamps implements circuit.LinearStamper.
func (d *VCVS) LinearStamps() bool { return false }

// LinearStamps implements circuit.LinearStamper.
func (d *VCCS) LinearStamps() bool { return false }

// LinearStamps implements circuit.LinearStamper.
func (d *CCCS) LinearStamps() bool { return false }

// LinearStamps implements circuit.LinearStamper.
func (d *CCVS) LinearStamps() bool { return false }

// LinearStamps implements circuit.LinearStamper.
func (d *Mutual) LinearStamps() bool { return false }

// Compile-time interface conformance checks. The Switch is deliberately
// absent: its conductance is a nonlinear function of the control voltage.
var (
	_ circuit.LinearStamper = (*Resistor)(nil)
	_ circuit.LinearStamper = (*Capacitor)(nil)
	_ circuit.LinearStamper = (*Inductor)(nil)
	_ circuit.LinearStamper = (*VSource)(nil)
	_ circuit.LinearStamper = (*ISource)(nil)
	_ circuit.LinearStamper = (*VCVS)(nil)
	_ circuit.LinearStamper = (*VCCS)(nil)
	_ circuit.LinearStamper = (*CCCS)(nil)
	_ circuit.LinearStamper = (*CCVS)(nil)
	_ circuit.LinearStamper = (*Mutual)(nil)
)

// StampLinearPart implementations: these nonlinear devices declare the
// constant linear part of their stamps, their gate and junction
// capacitances, to the stamp template (circuit.LinearPartStamper). Eval
// stamps that part through StampLinearPart unless the pass is templated, and
// EvalQ books its charge only then, so a templated pass followed by the
// linear part issues what the full Eval issues; TestLinearPartContract walks
// every constructor and holds each declaring device to that bit for bit.
var (
	_ circuit.LinearPartStamper = (*MOSFET)(nil)
	_ circuit.LinearPartStamper = (*MOSFETEKV)(nil)
)
