// CMOS ring oscillator: build a 7-stage ring programmatically, simulate it
// with the serial engine and WavePipe backward pipelining, and verify that
// both agree on the oscillation frequency — the analog-accuracy showcase,
// since an accumulated phase error would immediately shift the measured
// period.
package main

import (
	"context"
	"fmt"
	"log"

	"wavepipe"
)

func buildRing(stages int, vdd float64) *wavepipe.System {
	c := wavepipe.NewCircuit("ring")
	supply := c.Node("vdd")
	wavepipe.AddVSource(c, "VDD", supply, wavepipe.Ground, wavepipe.DC(vdd))
	nm := wavepipe.DefaultMOSModel(wavepipe.NMOS)
	pm := wavepipe.DefaultMOSModel(wavepipe.PMOS)
	pm.KP = 45e-6
	nodes := make([]int, stages)
	for i := range nodes {
		nodes[i] = c.Node(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < stages; i++ {
		in, out := nodes[i], nodes[(i+1)%stages]
		wavepipe.AddMOSFET(c, fmt.Sprintf("MP%d", i), out, in, supply, supply, pm, 2e-6, 0.5e-6)
		wavepipe.AddMOSFET(c, fmt.Sprintf("MN%d", i), out, in, wavepipe.Ground, wavepipe.Ground, nm, 1e-6, 0.5e-6)
		wavepipe.AddCapacitor(c, fmt.Sprintf("CL%d", i), out, wavepipe.Ground, 5e-15)
	}
	// Kick stage 0 off the metastable operating point.
	wavepipe.AddISource(c, "Ikick", nodes[0], wavepipe.Ground, wavepipe.Pulse{
		V1: 0, V2: 50e-6, Delay: 0.05e-9, Rise: 0.05e-9, Width: 0.3e-9,
	})
	sys, err := c.Build()
	if err != nil {
		log.Fatal(err)
	}
	return sys
}

// measurePeriod extracts the mean period from rising mid-rail crossings in
// the second half of the waveform (after startup).
func measurePeriod(w *wavepipe.Set, signal string, mid float64) float64 {
	sig, err := w.Signal(signal)
	if err != nil {
		log.Fatal(err)
	}
	var crossings []float64
	for i := len(sig) / 2; i < len(sig); i++ {
		if sig[i-1] < mid && sig[i] >= mid {
			// Linear interpolation of the crossing time.
			f := (mid - sig[i-1]) / (sig[i] - sig[i-1])
			crossings = append(crossings, w.Times[i-1]+f*(w.Times[i]-w.Times[i-1]))
		}
	}
	if len(crossings) < 2 {
		return 0
	}
	return (crossings[len(crossings)-1] - crossings[0]) / float64(len(crossings)-1)
}

func main() {
	const vdd = 1.8
	sys := buildRing(7, vdd)
	opts := wavepipe.TranOptions{TStop: 20e-9, Record: []string{"s0"}}

	ctx := context.Background()
	serial, err := wavepipe.RunTransientCtx(ctx, sys, opts)
	if err != nil {
		log.Fatal(err)
	}
	bw := opts
	bw.Scheme = wavepipe.Backward
	pipelined, err := wavepipe.RunTransientCtx(ctx, sys, bw)
	if err != nil {
		log.Fatal(err)
	}

	pSerial := measurePeriod(serial.W, "s0", vdd/2)
	pPipe := measurePeriod(pipelined.W, "s0", vdd/2)
	fmt.Printf("7-stage ring oscillator (%d unknowns)\n", sys.N)
	fmt.Printf("serial:   period %.4g ns  (f = %.3f GHz, %d points)\n",
		pSerial*1e9, 1e-9/pSerial, serial.Stats.Points)
	fmt.Printf("wavepipe: period %.4g ns  (f = %.3f GHz, %d points in %d stages)\n",
		pPipe*1e9, 1e-9/pPipe, pipelined.Stats.Points, pipelined.Stats.Stages)
	fmt.Printf("period mismatch: %.3g%%\n", 100*(pPipe-pSerial)/pSerial)

	dev, err := wavepipe.Compare(pipelined.W, serial.W, "s0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("waveform deviation: max %.3g V over a %.3g V swing\n", dev.Max, dev.Range)
}
