package wavepipe

import (
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/device"
	"wavepipe/internal/transient"
)

// Regression: a pulse with an instantaneous fall (Fall = 0) must not stall
// the pipelined engines (README quickstart circuit).
func TestInstantFallPulseDoesNotStall(t *testing.T) {
	mk := func() *circuit.System {
		c := circuit.New("rcq")
		in := c.Node("in")
		out := c.Node("out")
		c.Add(device.NewVSource("V1", in, circuit.Ground, device.Pulse{
			V2: 1, Rise: 1e-9, Width: 1e-6,
		}))
		c.Add(device.NewResistor("R1", in, out, 1e3))
		c.Add(device.NewCapacitor("C1", out, circuit.Ground, 1e-9))
		sys, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	for _, scheme := range []Scheme{SchemeBackward, SchemeForward} {
		res, err := Run(mk(), Options{
			Base:   transient.Options{TStop: 5e-6, MaxPoints: 5000},
			Scheme: scheme,
		})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if res.Stats.Points > 2000 {
			t.Fatalf("%v: %d points for a trivial RC", scheme, res.Stats.Points)
		}
	}
}
