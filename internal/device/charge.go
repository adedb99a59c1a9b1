package device

import "wavepipe/internal/circuit"

// EvalQ implementations: these devices promise the charge pass
// (circuit.Workspace.LoadCharges, what closes every converged point solve)
// that EvalQ issues exactly the AddQ calls their Eval issues under NoLimit —
// same rows, same order, same expressions, which is why each Eval calls the
// helper its EvalQ calls (EvalQ itself, capQ, depletion.eval, junction) —
// and writes the limiting-state slots that pass writes, and nothing else. The
// list is every type that stores charge or keeps limiting state; the other
// eight (R, the sources, the controlled sources, the switch) book neither and
// are never visited.
//
// This is a correctness promise. TestEvalQMatchesEval compares the Q and
// SNext of a charge pass with those of the full NoLimit load bit for bit
// across bias regions and parameter sets, and TestChargeWritersImplementEvalQ
// walks every constructor so that the next device somebody adds, if its Eval
// writes Q, fails the build of that test until it is listed here. A device
// outside this package that writes Q without the method still gets its charge
// booked — through its full Eval, at the old cost.

// Compile-time interface conformance checks.
var (
	_ circuit.ChargeEvaler = (*Capacitor)(nil)
	_ circuit.ChargeEvaler = (*Inductor)(nil)
	_ circuit.ChargeEvaler = (*Mutual)(nil)
	_ circuit.ChargeEvaler = (*Diode)(nil)
	_ circuit.ChargeEvaler = (*BJT)(nil)
	_ circuit.ChargeEvaler = (*MOSFET)(nil)
	_ circuit.ChargeEvaler = (*MOSFETEKV)(nil)
)
