package dcop

import (
	"fmt"

	"wavepipe/internal/circuit"
)

// Sensitivity computes DC small-signal sensitivities d v(out) / d p for
// every parameter exposed by the circuit's devices (SPICE .SENS), using the
// adjoint method: with the residual R(x, p) = 0 at the operating point,
//
//	dx/dp = −J⁻¹ · ∂R/∂p   and   d x_out/dp = −λᵀ · ∂R/∂p,
//
// where Jᵀ·λ = e_out. One transpose solve prices every parameter at a dot
// product.
type Sensitivity struct {
	Device string
	Param  string
	// DVDp is the derivative of the observed unknown with respect to the
	// parameter, in the parameter's natural unit (V/Ω, V/V, V/A, ...).
	DVDp float64
	// Normalized is DVDp · p: the output change per relative (100%)
	// parameter change, comparable across parameters.
	Normalized float64
}

// ParamSensitive is implemented by devices exposing DC-sensitivity
// parameters.
type ParamSensitive interface {
	// SensParams lists the parameter names and their current values.
	SensParams() ([]string, []float64)
	// AddDResidual accumulates ∂R/∂param at the operating point x into out.
	AddDResidual(param string, x, out []float64)
}

// Sens computes the operating point (into x, which also seeds the search)
// and the sensitivities of unknown outIdx with respect to every exposed
// parameter.
func Sens(ws *circuit.Workspace, x []float64, outIdx int, opts Options) ([]Sensitivity, error) {
	if outIdx < 0 || outIdx >= ws.Sys.N {
		return nil, fmt.Errorf("dcop: sensitivity output index %d out of range", outIdx)
	}
	if _, err := Solve(ws, x, opts); err != nil {
		return nil, err
	}
	// Re-assemble the Jacobian at the solution and factorize for the
	// adjoint solve.
	ws.Load(x, circuit.LoadParams{Gmin: circuit.JunctionGmin, SrcScale: 1, NoLimit: true})
	if err := ws.Solver.Factorize(); err != nil {
		return nil, err
	}
	n := ws.Sys.N
	e := make([]float64, n)
	e[outIdx] = 1
	lambda := make([]float64, n)
	scratch := make([]float64, n)
	ws.Solver.LU().SolveTransposeWith(e, lambda, scratch)

	var out []Sensitivity
	dr := make([]float64, n)
	for _, d := range ws.Sys.Circuit.Devices() {
		ps, ok := d.(ParamSensitive)
		if !ok {
			continue
		}
		names, values := ps.SensParams()
		for k, name := range names {
			for i := range dr {
				dr[i] = 0
			}
			ps.AddDResidual(name, x, dr)
			s := 0.0
			for i := range dr {
				s -= lambda[i] * dr[i]
			}
			out = append(out, Sensitivity{
				Device:     d.Name(),
				Param:      name,
				DVDp:       s,
				Normalized: s * values[k],
			})
		}
	}
	return out, nil
}
