package main

// Machine-readable metrics (-json) and the figures that can emit their
// sweep as JSON records (windowscale, reducescale).

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"wavepipe"
	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
)

// benchMetrics is one benchmark's machine-readable record.
type benchMetrics struct {
	Circuit              string `json:"circuit"`
	Scheme               string `json:"scheme"`
	GOMAXPROCS           int    `json:"gomaxprocs"`
	NsPerOp              int64  `json:"ns_per_op"`
	AllocsPerOp          uint64 `json:"allocs_per_op"`
	Points               int    `json:"points"`
	Stages               int    `json:"stages"`
	NRIters              int    `json:"nr_iters"`
	ReusedFactorizations int    `json:"reused_factorizations"`
	Refactorizations     int    `json:"refactorizations"`
	FullFactorizations   int    `json:"full_factorizations"`
}

// jsonMetrics runs the selected circuit once per configuration and emits a
// JSON array of benchMetrics on stdout.
func jsonMetrics(benchName string) error {
	var records []benchMetrics
	for _, b := range circuits.Suite() {
		if benchName != "all" && b.Name != benchName {
			continue
		}
		sys, err := build(b)
		if err != nil {
			return err
		}
		opts := wavepipe.TranOptions{TStop: window(b), Record: []string{b.Probe}}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		res, err := wavepipe.RunTransientCtx(context.Background(), sys, opts)
		wall := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		records = append(records, benchMetrics{
			Circuit:              b.Name,
			Scheme:               "serial",
			GOMAXPROCS:           runtime.GOMAXPROCS(0),
			NsPerOp:              wall.Nanoseconds(),
			AllocsPerOp:          ms1.Mallocs - ms0.Mallocs,
			Points:               res.Stats.Points,
			Stages:               res.Stats.Stages,
			NRIters:              res.Stats.NRIters,
			ReusedFactorizations: res.Stats.ReusedFactorizations,
			Refactorizations:     res.Stats.Refactorizations,
			FullFactorizations:   res.Stats.FullFactorizations,
		})
	}
	if len(records) == 0 {
		return fmt.Errorf("no benchmark circuit %q", benchName)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

// windowScaleRecord is one point of the time-parallel window sweep.
type windowScaleRecord struct {
	Circuit         string  `json:"circuit"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Mode            string  `json:"mode"` // serial | wavepipe | windows | windows-fast
	CoreBudget      int     `json:"core_budget"`
	Windows         int     `json:"windows"`
	Gate            float64 `json:"gate,omitempty"`
	Threads         int     `json:"threads"`
	WindowsLaunched int64   `json:"windows_launched"`
	PararealIters   int64   `json:"parareal_iters"`
	WindowRedos     int64   `json:"window_redos"`
	WallNs          int64   `json:"wall_ns"`
	CriticalNs      int64   `json:"critical_ns"`
	Speedup         float64 `json:"speedup"`
	RelMaxDev       float64 `json:"rel_max_dev"`
}

// figWindowScale sweeps time-parallel window count against core budget:
// for every budget (powers of two up to maxCores) it records the serial
// baseline, the best WavePipe-only configuration at that budget
// (the combined scheme), and windowed runs at
// W = 2/4/8 with serial fine engines — once at the accuracy-first
// default gate and once at the speed tier (gate 32, "windows-fast"),
// which accepts coarse seeds within 32 fine error weights and trades a
// small bounded seam deviation for fewer redos. Speedups use the critical-path
// timing model (windowed runs model the coarse lane + window schedule),
// and every record carries the probe's relative deviation from the serial
// waveform so accuracy rides along with the numbers.
func figWindowScale(benchName string, maxCores int, jsonOut bool) error {
	if maxCores <= 0 {
		maxCores = runtime.NumCPU()
	}
	names := []string{"ladder400", "grid16", "rect1k", "amp10M"}
	if benchName != "" && benchName != "all" {
		names = []string{benchName}
	}
	var budgets []int
	for b := 1; b <= maxCores; b *= 2 {
		budgets = append(budgets, b)
	}
	if budgets[len(budgets)-1] != maxCores {
		budgets = append(budgets, maxCores)
	}
	var records []windowScaleRecord
	for _, name := range names {
		b, ok := findBench(name)
		if !ok {
			return fmt.Errorf("no benchmark circuit %q", name)
		}
		sys, err := build(b)
		if err != nil {
			return err
		}
		base := wavepipe.TranOptions{TStop: window(b), Record: []string{b.Probe}}
		wall, ref, err := timed(sys, base)
		if err != nil {
			return err
		}
		serialCrit := ref.Stats.CriticalNanos
		add := func(mode string, W int, opts wavepipe.TranOptions) error {
			wall, res, err := timed(sys, opts)
			if err != nil {
				return err
			}
			dev, err := wavepipe.Compare(res.W, ref.W, b.Probe)
			if err != nil {
				return err
			}
			records = append(records, windowScaleRecord{
				Circuit:         b.Name,
				GOMAXPROCS:      runtime.GOMAXPROCS(0),
				Mode:            mode,
				CoreBudget:      opts.CoreBudget,
				Windows:         W,
				Threads:         res.Stats.PipelineWorkers,
				Gate:            opts.CoarseOpts.Gate,
				WindowsLaunched: res.Stats.WindowsLaunched,
				PararealIters:   res.Stats.PararealIters,
				WindowRedos:     res.Stats.WindowRedos,
				WallNs:          wall.Nanoseconds(),
				CriticalNs:      res.Stats.CriticalNanos,
				Speedup:         float64(serialCrit) / float64(res.Stats.CriticalNanos),
				RelMaxDev:       dev.RelMax(),
			})
			return nil
		}
		records = append(records, windowScaleRecord{
			Circuit: b.Name, GOMAXPROCS: runtime.GOMAXPROCS(0), Mode: "serial",
			CoreBudget: 1, WallNs: wall.Nanoseconds(), CriticalNs: serialCrit, Speedup: 1,
		})
		for _, budget := range budgets {
			if budget < 2 {
				continue
			}
			wp := base
			wp.Scheme = wavepipe.Combined
			wp.CoreBudget = budget
			if err := add("wavepipe", 0, wp); err != nil {
				return err
			}
			for _, W := range []int{2, 4, 8} {
				wo := base
				wo.Windows = W
				wo.CoreBudget = budget
				if err := add("windows", W, wo); err != nil {
					return err
				}
				wo.CoarseOpts.Gate = 32
				if err := add("windows-fast", W, wo); err != nil {
					return err
				}
			}
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(records)
	}
	fmt.Printf("Figure F10: time-parallel windows vs best WavePipe-only (GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	fmt.Println("circuit,budget,mode,windows,threads,redos,wall_ms,crit_ms,speedup,rel_max_dev")
	for _, r := range records {
		fmt.Printf("%s,%d,%s,%d,%d,%d,%.2f,%.2f,%.2f,%.2e\n",
			r.Circuit, r.CoreBudget, r.Mode, r.Windows, r.Threads, r.WindowRedos,
			float64(r.WallNs)/1e6, float64(r.CriticalNs)/1e6, r.Speedup, r.RelMaxDev)
	}
	return nil
}

// reduceScaleRecord is one point of the parasitic-reduction sweep.
type reduceScaleRecord struct {
	Circuit        string  `json:"circuit"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Mode           string  `json:"mode"` // off | reduced | exact
	Tol            float64 `json:"tol"`
	FullNodes      int     `json:"full_nodes"`
	Nodes          int     `json:"nodes"` // MNA nodes actually simulated
	ReducedNodes   int64   `json:"reduced_nodes"`
	ReducedDevices int64   `json:"reduced_devices"`
	NodeReduction  float64 `json:"node_reduction"` // full_nodes / nodes
	Points         int     `json:"points"`
	WallNs         int64   `json:"wall_ns"`
	CriticalNs     int64   `json:"critical_ns"`
	Speedup        float64 `json:"speedup"` // off wall / this wall (end to end)
	RelMaxDev      float64 `json:"rel_max_dev"`
}

// figReduceScale sweeps the structural parasitic-reduction pass over RC
// ladders of growing length plus the grid16 mesh as a negative control
// (every mesh node carries four devices, so the pass is a provable
// no-op there). Each circuit runs three ways on one thread: reduction
// off (the reference), reduction on at the default tolerance, and
// exact mode (ReduceTol=0, series merges only — bit-identical by
// construction on these decks because the lumping stage is what the
// ladders exercise). The reduced runs pay for planning and rebuilding
// the smaller system inside the timed region, so Speedup is the honest
// end-to-end wall ratio, and every record carries the probe's relative
// deviation from the unreduced waveform.
func figReduceScale(benchName string, jsonOut bool) error {
	ladder := func(n int) circuits.Benchmark {
		return circuits.Benchmark{
			Name:  fmt.Sprintf("ladder%d", n),
			Kind:  "analog",
			Make:  func() *circuit.Circuit { return circuits.RCLadder(n) },
			TStop: 100e-9,
			Probe: "out",
		}
	}
	benches := []circuits.Benchmark{ladder(100), ladder(200), ladder(400), ladder(800)}
	if grid, ok := findBench("grid16"); ok {
		benches = append(benches, grid)
	}
	if benchName != "" && benchName != "all" {
		kept := benches[:0]
		for _, b := range benches {
			if b.Name == benchName {
				kept = append(kept, b)
			}
		}
		if len(kept) == 0 {
			b, ok := findBench(benchName)
			if !ok {
				return fmt.Errorf("no benchmark circuit %q", benchName)
			}
			kept = append(kept, b)
		}
		benches = kept
	}
	var records []reduceScaleRecord
	for _, b := range benches {
		sys, err := build(b)
		if err != nil {
			return err
		}
		base := wavepipe.TranOptions{TStop: window(b), Record: []string{b.Probe}}
		offWall, ref, err := timed(sys, base)
		if err != nil {
			return err
		}
		records = append(records, reduceScaleRecord{
			Circuit: b.Name, GOMAXPROCS: runtime.GOMAXPROCS(0), Mode: "off",
			FullNodes: sys.NumNodes, Nodes: sys.NumNodes, NodeReduction: 1,
			Points: ref.Stats.Points, WallNs: offWall.Nanoseconds(),
			CriticalNs: ref.Stats.CriticalNanos, Speedup: 1,
		})
		run := func(mode string, tol float64) error {
			opts := base
			opts.Reduce = true
			opts.ReduceTol = tol
			wall, res, err := timed(sys, opts)
			if err != nil {
				return err
			}
			dev, err := wavepipe.Compare(res.W, ref.W, b.Probe)
			if err != nil {
				return err
			}
			post := sys.NumNodes - int(res.Stats.ReducedNodes)
			records = append(records, reduceScaleRecord{
				Circuit: b.Name, GOMAXPROCS: runtime.GOMAXPROCS(0), Mode: mode,
				Tol:            tol,
				FullNodes:      sys.NumNodes,
				Nodes:          post,
				ReducedNodes:   res.Stats.ReducedNodes,
				ReducedDevices: res.Stats.ReducedDevices,
				NodeReduction:  float64(sys.NumNodes) / float64(post),
				Points:         res.Stats.Points,
				WallNs:         wall.Nanoseconds(),
				CriticalNs:     res.Stats.CriticalNanos,
				Speedup:        float64(offWall.Nanoseconds()) / float64(wall.Nanoseconds()),
				RelMaxDev:      dev.RelMax(),
			})
			return nil
		}
		if err := run("reduced", wavepipe.DefaultReduceTol); err != nil {
			return err
		}
		if err := run("exact", 0); err != nil {
			return err
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(records)
	}
	fmt.Printf("Figure F11: parasitic reduction vs ladder size (GOMAXPROCS=%d)\n", runtime.GOMAXPROCS(0))
	fmt.Println("circuit,mode,tol,full_nodes,nodes,node_reduction,points,wall_ms,crit_ms,speedup,rel_max_dev")
	for _, r := range records {
		fmt.Printf("%s,%s,%g,%d,%d,%.1f,%d,%.2f,%.2f,%.2f,%.2e\n",
			r.Circuit, r.Mode, r.Tol, r.FullNodes, r.Nodes, r.NodeReduction, r.Points,
			float64(r.WallNs)/1e6, float64(r.CriticalNs)/1e6, r.Speedup, r.RelMaxDev)
	}
	return nil
}
