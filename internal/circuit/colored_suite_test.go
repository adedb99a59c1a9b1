package circuit_test

// Suite-wide equivalence: on every benchmark circuit of the evaluation
// suite, the colored direct-stamp assembly must reproduce the serial Load's
// stamps to floating-point reassociation accuracy (rows with three or more
// contributing devices may differ by ~1 ulp), under both the degraded pool's
// class-order sweep and a forced concurrent gang.

import (
	"math"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
)

func equalUlpScale(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

func TestColoredLoadMatchesSerialOnSuite(t *testing.T) {
	const tol = 1e-12
	for _, b := range circuits.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, sys.N)
			for i := range x {
				// Small, mixed-sign iterate: keeps exponential device models in
				// range while exercising nonlinear stamps.
				x[i] = 0.05 * float64(i%7-3)
			}
			p := circuit.LoadParams{Time: 1e-9, Alpha0: 1e9, Gmin: 1e-12, SrcScale: 1}

			serial := sys.NewWorkspace()
			serial.Load(x, p)

			for name, gang := range map[string]bool{"classorder": false, "parallel": true} {
				ws := sys.NewWorkspace()
				circuit.AttachTestPool(t, ws, 4, gang)
				ws.LoadColoredForced(x, p)
				for i := range serial.F {
					if !equalUlpScale(serial.F[i], ws.F[i], tol) ||
						!equalUlpScale(serial.Q[i], ws.Q[i], tol) ||
						!equalUlpScale(serial.B[i], ws.B[i], tol) {
						t.Fatalf("%s: F/Q/B mismatch at row %d", name, i)
					}
				}
				for i := range serial.M.Values {
					if !equalUlpScale(serial.M.Values[i], ws.M.Values[i], tol) {
						t.Fatalf("%s: Jacobian mismatch at slot %d: %g vs %g",
							name, i, serial.M.Values[i], ws.M.Values[i])
					}
				}
				if serial.Limited != ws.Limited {
					t.Fatalf("%s: limited flag mismatch", name)
				}
			}
		})
	}
}
