package device

import "wavepipe/internal/circuit"

// EvalQ implementations: these devices promise the charge pass
// (circuit.Workspace.BookCharges, what closes every converged point solve)
// that EvalQ issues exactly the AddQ calls their Eval issues under NoLimit
// and the same EvalCtx.Templated — same rows, same order, same expressions,
// which is why each Eval calls the helper its EvalQ calls (capQ,
// depletion.eval, junction) — and writes the limiting-state slots that
// pass writes, and nothing else. The list is every swept type (no
// circuit.LinearStamper) that stores charge or keeps limiting state; the
// stamp template books the charge of the linear ones, and the switch books
// neither. A MOSFET's charge is its declared linear part, which the stamp
// template books, so the pass visits neither model.
//
// This is a correctness promise. TestEvalQMatchesEval compares the Q and
// SNext of a charge pass with those of the untemplated NoLimit load bit for
// bit across bias regions and parameter sets, and
// TestChargeWritersImplementEvalQ walks every constructor so that the next
// swept device somebody adds, if its Eval writes Q, fails that test until it
// is listed here (the pass visits no other).

// Compile-time interface conformance checks.
var (
	_ circuit.ChargeEvaler = (*Diode)(nil)
	_ circuit.ChargeEvaler = (*BJT)(nil)
	_ circuit.ChargeEvaler = (*MOSFET)(nil)
	_ circuit.ChargeEvaler = (*MOSFETEKV)(nil)
)
