// Power-grid droop analysis: build a 20×20 on-chip power-distribution mesh
// programmatically, hit it with synchronized switching-current loads, and
// compare every engine's time-to-solution model on the same workload — the
// paper's headline experiment in miniature.
package main

import (
	"fmt"
	"log"
	"math"

	"wavepipe"
)

func buildGrid(n int, vdd float64) (*wavepipe.System, string) {
	c := wavepipe.NewCircuit("powergrid")
	name := func(i, j int) string { return fmt.Sprintf("n%d_%d", i, j) }
	supply := c.Node("vdd")
	wavepipe.AddVSource(c, "VDD", supply, wavepipe.Ground, wavepipe.DC(vdd))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			nd := c.Node(name(i, j))
			wavepipe.AddCapacitor(c, fmt.Sprintf("C%d_%d", i, j), nd, wavepipe.Ground, 1e-12)
			if j+1 < n {
				wavepipe.AddResistor(c, fmt.Sprintf("Rh%d_%d", i, j), nd, c.Node(name(i, j+1)), 0.5)
			}
			if i+1 < n {
				wavepipe.AddResistor(c, fmt.Sprintf("Rv%d_%d", i, j), nd, c.Node(name(i+1, j)), 0.5)
			}
		}
	}
	for k, corner := range [][2]int{{0, 0}, {0, n - 1}, {n - 1, 0}, {n - 1, n - 1}} {
		nd, _ := c.FindNode(name(corner[0], corner[1]))
		wavepipe.AddResistor(c, fmt.Sprintf("Rpkg%d", k), supply, nd, 0.05)
	}
	// Four switching blocks drawing pulsed current near the grid centre.
	for k, pos := range [][2]int{{n / 3, n / 3}, {n / 3, 2 * n / 3}, {2 * n / 3, n / 3}, {2 * n / 3, 2 * n / 3}} {
		nd, _ := c.FindNode(name(pos[0], pos[1]))
		wavepipe.AddISource(c, fmt.Sprintf("Isw%d", k), nd, wavepipe.Ground, wavepipe.Pulse{
			V1: 0, V2: 10e-3, Delay: 1e-9, Rise: 0.5e-9, Fall: 0.5e-9, Width: 2e-9, Period: 8e-9,
		})
	}
	sys, err := c.Build()
	if err != nil {
		log.Fatal(err)
	}
	return sys, name(n/2, n/2)
}

func main() {
	sys, probe := buildGrid(20, 1.8)
	fmt.Printf("power grid: %d unknowns, probing %s\n\n", sys.N, probe)

	base := wavepipe.TranOptions{TStop: 40e-9, Record: []string{probe}}
	serial, err := wavepipe.RunTransient(sys, base)
	if err != nil {
		log.Fatal(err)
	}
	serialCrit := serial.Stats.CriticalNanos

	// Worst-case droop at the grid centre.
	sig, _ := serial.W.Signal(probe)
	minV := math.Inf(1)
	for _, v := range sig {
		minV = math.Min(minV, v)
	}
	fmt.Printf("worst-case droop at %s: %.1f mV below nominal\n\n", probe, (1.8-minV)*1e3)

	fmt.Printf("%-12s %8s %8s %10s %12s\n", "engine", "points", "stages", "model(ms)", "speedup")
	fmt.Printf("%-12s %8d %8d %10.2f %12s\n", "serial",
		serial.Stats.Points, serial.Stats.Stages, float64(serialCrit)/1e6, "1.00")
	for _, cfg := range []struct {
		scheme  wavepipe.Scheme
		threads int
	}{
		{wavepipe.Backward, 2},
		{wavepipe.Forward, 2},
		{wavepipe.Combined, 4},
	} {
		opts := base
		opts.Scheme = cfg.scheme
		opts.Threads = cfg.threads
		res, err := wavepipe.RunTransient(sys, opts)
		if err != nil {
			log.Fatal(err)
		}
		dev, _ := wavepipe.Compare(res.W, serial.W, probe)
		fmt.Printf("%-12s %8d %8d %10.2f %12.2f   (dev %.2g V)\n",
			fmt.Sprintf("%v/%dT", cfg.scheme, cfg.threads),
			res.Stats.Points, res.Stats.Stages,
			float64(res.Stats.CriticalNanos)/1e6,
			float64(serialCrit)/float64(res.Stats.CriticalNanos), dev.Max)
	}
}
