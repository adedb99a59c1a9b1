// Worst-case analysis of a voltage reference: DC operating point, adjoint
// sensitivity analysis (.SENS) ranking which components matter, a
// worst-case corner estimate from the normalized sensitivities — and a
// batched corner verification: the tolerance corners run as ensemble lanes
// sharing one symbolic analysis and one gang, against which the first-order
// estimate is checked and the batch-vs-serial speedup measured by the clock.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"sort"
	"time"

	"wavepipe"
)

func main() {
	// A diode-stabilized reference: divider feeding a diode clamp.
	c := wavepipe.NewCircuit("vref")
	in := c.Node("in")
	ref := c.Node("ref")
	wavepipe.AddVSource(c, "VSUP", in, wavepipe.Ground, wavepipe.DC(12))
	wavepipe.AddResistor(c, "R1", in, ref, 4.7e3)
	wavepipe.AddResistor(c, "R2", ref, wavepipe.Ground, 10e3)
	m := wavepipe.DefaultDiodeModel()
	m.IS = 1e-12
	wavepipe.AddDiode(c, "D1", ref, wavepipe.Ground, m, 1)
	sys, err := c.Build()
	if err != nil {
		log.Fatal(err)
	}

	op, err := wavepipe.RunOP(sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("operating point: v(ref) = %.4f V\n\n", op["ref"])

	sens, err := wavepipe.RunSens(sys, "ref")
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(sens, func(i, j int) bool {
		return math.Abs(sens[i].Normalized) > math.Abs(sens[j].Normalized)
	})
	fmt.Printf("%-8s %-6s %14s %18s\n", "device", "param", "dV/dp", "dV per +100% p")
	for _, s := range sens {
		fmt.Printf("%-8s %-6s %14.6g %18.6g\n", s.Device, s.Param, s.DVDp, s.Normalized)
	}

	// Worst-case estimate for ±5% resistors and ±2% supply, first order.
	worst := 0.0
	for _, s := range sens {
		tol := 0.05
		if s.Device == "VSUP" {
			tol = 0.02
		}
		worst += math.Abs(s.Normalized) * tol
	}
	fmt.Printf("\nfirst-order worst case (±5%% R, ±2%% supply): ±%.2f mV\n", worst*1e3)

	// Verify the estimate by brute force: run the extreme corners as one
	// batched ensemble. Every lane shares the nominal circuit's matrix
	// pattern and fill-in ordering; only values differ.
	corner := func(name string, dr1, dr2, dv float64) *wavepipe.Circuit {
		c := wavepipe.NewCircuit(name)
		in := c.Node("in")
		ref := c.Node("ref")
		wavepipe.AddVSource(c, "VSUP", in, wavepipe.Ground, wavepipe.Pulse{
			V1: 0, V2: 12 * (1 + dv), Delay: 0, Rise: 10e-6, Width: 1, Period: 2,
		})
		wavepipe.AddResistor(c, "R1", in, ref, 4.7e3*(1+dr1))
		wavepipe.AddResistor(c, "R2", ref, wavepipe.Ground, 10e3*(1+dr2))
		wavepipe.AddCapacitor(c, "C1", ref, wavepipe.Ground, 100e-9)
		wavepipe.AddDiode(c, "D1", ref, wavepipe.Ground, m, 1)
		return c
	}
	const tolR, tolV = 0.05, 0.02
	specs := []struct {
		name         string
		dr1, dr2, dv float64
	}{
		{"nominal", 0, 0, 0},
		{"low", +tolR, -tolR, -tolV},  // drives v(ref) down
		{"high", -tolR, +tolR, +tolV}, // drives v(ref) up
		{"r-up", +tolR, +tolR, 0},
		{"r-down", -tolR, -tolR, 0},
	}
	lanes := make([]*wavepipe.Circuit, len(specs))
	for i, sp := range specs {
		lanes[i] = corner(sp.name, sp.dr1, sp.dr2, sp.dv)
	}
	const tstop = 200e-6
	opts := wavepipe.TranOptions{TStop: tstop, Record: []string{"ref"}}

	ensOpts := opts
	ensOpts.Threads = len(specs) // one gang worker per corner
	ctx := context.Background()
	t0 := time.Now()
	res, err := wavepipe.RunEnsembleCircuitsCtx(ctx, lanes, ensOpts)
	ensWall := time.Since(t0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsettled v(ref) per corner (batched transient, %d lanes):\n", len(specs))
	vNom := 0.0
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, lr := range res.Lanes {
		if lr.Err != nil {
			log.Fatalf("corner %s: %v", lr.Name, lr.Err)
		}
		v, err := lr.Res.W.At("ref", tstop)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			vNom = v
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
		fmt.Printf("  %-8s %.4f V\n", lr.Name, v)
	}
	fmt.Printf("measured corner spread: %+.2f / %+.2f mV around nominal (estimate ±%.2f mV)\n",
		(lo-vNom)*1e3, (hi-vNom)*1e3, worst*1e3)

	// Speedup: the same corners built and run one after another, both sides
	// by the clock.
	t0 = time.Now()
	for i, sp := range specs {
		sys, err := corner(sp.name, sp.dr1, sp.dr2, sp.dv).Build()
		if err != nil {
			log.Fatal(err)
		}
		if _, err := wavepipe.RunTransientCtx(ctx, sys, opts); err != nil {
			log.Fatalf("serial corner %d: %v", i, err)
		}
	}
	serialWall := time.Since(t0)
	fmt.Printf("batch speedup: %d serial corners %.2f ms -> ensemble %.2f ms wall (%.2fx, %d workers)\n",
		len(specs), serialWall.Seconds()*1e3, ensWall.Seconds()*1e3,
		serialWall.Seconds()/ensWall.Seconds(), res.Stats.PipelineWorkers)
}
