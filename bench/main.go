// Command bench is the repository's wall-clock benchmark: seven workloads,
// each measured end to end with tracing off and then once more under the
// benchmark's own spans for the per-layer numbers. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md in this
// directory says how each is measured.
//
//	bash bench/run.sh -seed 1 -out bench/out/all.json          every workload, from one process
//	bash bench/run.sh --workload mesh_serial --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh -diff old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"
)

// commit is stamped by run.sh (-ldflags -X) when the checkout is a git
// repository.
var commit = "unknown"

// environment is recorded in every result file.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Started    string  `json:"started"`
}

// resultFile is what -out writes and -diff reads. Pass counts and the
// sample count of every timing sit inside the workloads' reports.
type resultFile struct {
	Env       environment `json:"env"`
	Workloads []*report   `json:"workloads"`
}

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed for variant scale factors, job order and cold-deck perturbations")
	secs := flag.Float64("seconds", defaultSeconds, "run length the fixed pass counts are scaled to")
	trace := flag.Int("trace", -1, "1: traced pass and per-layer metrics; 0: end-to-end metrics only (default: 1 for all, 0 for one workload)")
	out := flag.String("out", "", "write the full result file here")
	dir := flag.String("dir", "bench/out", "directory for scratch files and traces")
	diff := flag.Bool("diff", false, "compare two result files: -diff old.json new.json")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff takes two result files"))
		}
		if err := runDiff(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	rc := runConfig{seed: *seed, seconds: *secs, nproc: nproc, dir: *dir,
		trace: *trace == 1 || *trace < 0 && *workload == "all"}
	file := resultFile{Env: environment{
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit,
		Seed: *seed, Seconds: *secs, Traced: rc.trace, Started: time.Now().UTC().Format(time.RFC3339),
	}}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var last *report
	for _, name := range names {
		rep, err := runWorkload(ctx, name, rc)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		printReport(rep)
		file.Workloads = append(file.Workloads, rep)
		last = rep
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if len(names) == 1 {
		// The driver's contract: one JSON object as the last line.
		fmt.Println(contractLine(last, rc.trace))
	}
	for _, rep := range file.Workloads {
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// contractLine renders the result the driver reads: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func contractLine(rep *report, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := rep.EndToEnd
	if traced {
		src = rep.PerLayer
	}
	metrics := map[string]mv{}
	for n, m := range src {
		metrics[n] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics,
	})
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// printReport prints every metric by name with its unit, timings with
// their sample count, quartiles and high percentile.
func printReport(rep *report) {
	fmt.Printf("== %s: %d passes, %d set-up repetitions, %d runs attempted, %d failed, correct=%v\n",
		rep.Name, rep.Passes, rep.SetupReps, rep.Attempted, rep.Failed, rep.Correct)
	for _, p := range rep.Problems {
		fmt.Println("   problem:", p)
	}
	show := func(n string, m measured) {
		fmt.Printf("   %-32s %14.6g %-6s", n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Printf(" n=%d q1=%.6g q3=%.6g p%.0f=%.6g", m.N, m.Q1, m.Q3, m.HiPct, m.Hi)
		}
		fmt.Println()
	}
	for _, n := range sortedKeys(rep.EndToEnd) {
		show(n, rep.EndToEnd[n])
	}
	if rep.PerLayer == nil { // a traced run prints them among the layers
		for _, n := range sortedKeys(rep.Clock) {
			show(n, rep.Clock[n])
		}
	}
	for _, n := range sortedKeys(rep.PerLayer) {
		show(n, rep.PerLayer[n])
	}
	for _, row := range rep.Details {
		b, _ := json.Marshal(row)
		fmt.Printf("   %s\n", b)
	}
	if rep.TraceFile != "" {
		fmt.Println("   trace:", rep.TraceFile)
	}
}
