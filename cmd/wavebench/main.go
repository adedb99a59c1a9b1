// Command wavebench prints one machine-readable record per evaluation
// circuit: a serial run at the circuit's full horizon, its wall time,
// allocations and solver counters.
//
//	wavebench -json -bench grid16   # one suite circuit
//	wavebench -json -bench all      # every suite circuit
//
// The clocked pipeline, window, ensemble, reduction and service numbers
// come from bench/ (bash bench/run.sh); EXPERIMENTS.md says which command
// produced each figure.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"wavepipe"
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

func main() {
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON metrics (required)")
	benchName := flag.String("bench", "grid16", "suite circuit to run, or all")
	flag.Parse()
	if !*jsonOut {
		flag.Usage()
		os.Exit(2)
	}
	if err := jsonMetrics(os.Stdout, *benchName); err != nil {
		fmt.Fprintln(os.Stderr, "wavebench:", err)
		os.Exit(1)
	}
}

// jsonMetrics runs the selected circuit (or every suite circuit for "all")
// once, serially, and writes a JSON array of benchMetrics to w.
func jsonMetrics(w io.Writer, benchName string) error {
	benches := circuits.Suite()
	if benchName != "all" {
		b, ok := findBench(benchName)
		if !ok {
			return fmt.Errorf("no benchmark circuit %q", benchName)
		}
		benches = []circuits.Benchmark{b}
	}
	records := make([]benchMetrics, 0, len(benches))
	for _, b := range benches {
		sys, err := b.Make().Build()
		if err != nil {
			return err
		}
		opts := wavepipe.TranOptions{TStop: b.TStop, Record: []string{b.Probe}}
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
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

func findBench(name string) (circuits.Benchmark, bool) {
	for _, b := range circuits.Suite() {
		if b.Name == name {
			return b, true
		}
	}
	return circuits.Benchmark{}, false
}
