package device

import (
	"testing"

	"wavepipe/internal/circuit"
)

// Consolidated finite-difference Jacobian sweep: one table covering every
// nonlinear device model plus the branch-coupled Mutual, each checked at a
// grid of deterministic operating points and at several Alpha0 blends
// (Alpha0 = 0 isolates dF/dx; the large values fold dQ/dx in).
//
// The incremental assembly engine (internal/circuit) takes the linear devices'
// Jacobians as the whole of their F and Q (F = J_F·x, Q = J_Q·x), so an
// analytic Jacobian that disagrees with the residual would not just slow
// Newton down — it would silently corrupt templated assemblies. This sweep is
// the safety net named in that engine's package contract.
func TestJacobianFDSweep(t *testing.T) {
	alphas := []float64{0, 1e6, 1e8}
	cases := []struct {
		name   string
		build  func() *circuit.Circuit
		points [][]float64
	}{
		{
			// Forward conduction, reverse, and forward-depletion (v > FC·VJ).
			name: "diode",
			build: func() *circuit.Circuit {
				c := circuit.New("jac-diode")
				a := c.Node("a")
				b := c.Node("b")
				c.Add(NewISource("I1", circuit.Ground, a, DC(1e-3)))
				c.Add(NewResistor("R1", a, b, 50))
				c.Add(NewDiode("D1", b, circuit.Ground,
					DiodeModel{IS: 1e-14, N: 1.2, TT: 5e-9, CJ0: 2e-12, VJ: 0.8, M: 0.4}, 2))
				return c
			},
			points: [][]float64{{0.67, 0.62}, {-1.9, -2.0}, {0.5, 0.45}, {0.75, 0.71}},
		},
		{
			// Forward active, saturation, reverse active, cutoff (x = c, b, e).
			name: "bjt-npn",
			build: func() *circuit.Circuit {
				m := DefaultBJTModel(NPN)
				m.VAF = 80
				m.TF = 1e-10
				m.CJE = 1e-12
				m.CJC = 0.5e-12
				return bjtJacCircuit(m)
			},
			points: [][]float64{{2, 0.7, 0}, {0.05, 0.72, 0}, {0.1, 0.4, 0.9}, {1, -0.5, 0}},
		},
		{
			name: "bjt-pnp",
			build: func() *circuit.Circuit {
				m := DefaultBJTModel(PNP)
				m.VAF = 80
				m.TF = 1e-10
				m.CJE = 1e-12
				m.CJC = 0.5e-12
				return bjtJacCircuit(m)
			},
			points: [][]float64{{-2, -0.7, 0}, {-0.05, -0.72, 0}, {-0.1, -0.4, -0.9}, {-1, 0.5, 0}},
		},
		{
			// Saturation, triode, cutoff, and reversed drain/source
			// (x = d, g, s + the two source branch currents).
			name: "mosfet-nmos",
			build: func() *circuit.Circuit {
				m := DefaultMOSModel(NMOS)
				m.CBD = 1e-14
				m.CBS = 1e-14
				c, _ := mosTestCircuit(m)
				return c
			},
			points: [][]float64{
				{2, 1.5, 0.1, -1e-3, -1e-4},
				{0.3, 1.8, 0, -2e-3, -1e-4},
				{2, 0.3, 0, 0, 0},
				{0.1, 1.5, 1.9, 1e-3, 1e-4},
			},
		},
		{
			name: "mosfet-pmos",
			build: func() *circuit.Circuit {
				m := DefaultMOSModel(PMOS)
				m.CBD = 1e-14
				m.CBS = 1e-14
				c, _ := mosTestCircuit(m)
				return c
			},
			points: [][]float64{
				{-2, -1.5, -0.1, 1e-3, 1e-4},
				{-0.3, -1.8, 0, 2e-3, 1e-4},
				{-2, -0.3, 0, 0, 0},
				{-0.1, -1.5, -1.9, -1e-3, -1e-4},
			},
		},
		{
			// Strong inversion, subthreshold, triode, body bias (x = d, g, s, b).
			name: "ekv-nmos",
			build: func() *circuit.Circuit {
				return ekvJacCircuit(DefaultEKVModel(NMOS))
			},
			points: [][]float64{
				{1.5, 2, 0, 0},
				{0.25, 0.2, 0, 0},
				{0.2, 1.8, 0, -0.3},
				{1, 1.2, 0.4, 0.1},
			},
		},
		{
			name: "ekv-pmos",
			build: func() *circuit.Circuit {
				return ekvJacCircuit(DefaultEKVModel(PMOS))
			},
			points: [][]float64{
				{-1.5, -2, 0, 0},
				{-0.25, -0.2, 0, 0},
				{-0.2, -1.8, 0, 0.3},
				{-1, -1.2, -0.4, -0.1},
			},
		},
		{
			// Off, mid-transition (the steep smoothstep region), and on
			// (x = a, b, ctl).
			name: "switch",
			build: func() *circuit.Circuit {
				c := circuit.New("jac-sw")
				a := c.Node("a")
				b := c.Node("b")
				ctl := c.Node("ctl")
				c.Add(NewISource("I1", circuit.Ground, a, DC(1e-3)))
				c.Add(NewResistor("R1", a, circuit.Ground, 1e4))
				c.Add(NewResistor("R2", b, circuit.Ground, 1e3))
				c.Add(NewResistor("R3", ctl, circuit.Ground, 1e3))
				m := DefaultSwitchModel()
				m.VT = 0.5
				m.DV = 0.2
				c.Add(NewSwitch("S1", a, b, ctl, circuit.Ground, m))
				return c
			},
			points: [][]float64{{0.8, 0.1, 0.1}, {0.6, 0.3, 0.45}, {0.5, 0.4, 0.55}, {0.3, 0.28, 0.9}},
		},
		{
			// Coupled inductors: linear but branch-coupled through the mutual
			// flux, so the FD sweep certifies the off-diagonal JQ entries the
			// linear-stamp template freezes (x = p, s + the two branch
			// currents).
			name: "mutual",
			build: func() *circuit.Circuit {
				c := circuit.New("jac-xfmr")
				p := c.Node("p")
				s := c.Node("s")
				l1 := NewInductor("L1", p, circuit.Ground, 1e-3)
				l2 := NewInductor("L2", s, circuit.Ground, 4e-3)
				c.Add(NewResistor("Rp", p, circuit.Ground, 1e3))
				c.Add(l1)
				c.Add(l2)
				c.Add(NewResistor("RL", s, circuit.Ground, 50))
				c.Add(NewMutual("K1", l1, l2, 0.9))
				return c
			},
			points: [][]float64{{1, -0.5, 2e-3, -1e-3}, {0.2, 0.1, -5e-4, 3e-4}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			for _, x := range tc.points {
				for _, a0 := range alphas {
					fdJacobianCheck(t, c, x, a0)
				}
			}
		})
	}
}

func bjtJacCircuit(m BJTModel) *circuit.Circuit {
	c := circuit.New("jac-bjt")
	col := c.Node("c")
	base := c.Node("b")
	em := c.Node("e")
	c.Add(NewResistor("R1", col, circuit.Ground, 1e4))
	c.Add(NewResistor("R2", base, circuit.Ground, 1e4))
	c.Add(NewResistor("R3", em, circuit.Ground, 1e4))
	c.Add(NewBJT("Q1", col, base, em, m, 2))
	return c
}

func ekvJacCircuit(m EKVModel) *circuit.Circuit {
	c := circuit.New("jac-ekv")
	dN := c.Node("d")
	gN := c.Node("g")
	sN := c.Node("s")
	bN := c.Node("b")
	c.Add(NewResistor("Rd", dN, circuit.Ground, 1e4))
	c.Add(NewResistor("Rg", gN, circuit.Ground, 1e4))
	c.Add(NewResistor("Rs", sN, circuit.Ground, 1e4))
	c.Add(NewResistor("Rb", bN, circuit.Ground, 1e4))
	c.Add(NewMOSFETEKV("M1", dN, gN, sN, bN, m, 4e-6, 1e-6))
	return c
}
