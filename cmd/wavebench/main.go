// Command wavebench regenerates the evaluation of the WavePipe
// reproduction: every table and figure listed in DESIGN.md / EXPERIMENTS.md.
//
//	wavebench -all            # everything (several minutes)
//	wavebench -table 2        # backward-pipelining speedup table
//	wavebench -fig scaling    # speedup vs thread count series
//	wavebench -quick -all     # reduced windows (smoke test)
//
// Tables print in the layout of the corresponding table in the paper;
// figures print as CSV series ready for plotting.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"wavepipe"
	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
)

var (
	quick       = flag.Bool("quick", false, "reduce simulation windows 5x (smoke test)")
	reps        = flag.Int("reps", 1, "wall-clock repetitions (minimum is reported)")
	tracePath   = flag.String("trace", "", "record every timed run's event stream to this file (.jsonl = JSONL, else Chrome trace_event JSON)")
	metricsAddr = flag.String("metrics-addr", "", "serve live run metrics over HTTP on this address (Prometheus text at /metrics)")
	deadline    = flag.String("deadline", "", "wall-clock budget per timed run (Go duration, e.g. 5m); a run exceeding it aborts the regeneration")

	// benchDeadline is the parsed -deadline, applied to every timed run.
	benchDeadline time.Duration

	// benchObserver, when non-nil, is attached to every timed run so one
	// trace/metrics stream covers the whole regeneration. Tracing perturbs
	// the per-solve timings slightly; don't combine with published numbers.
	benchObserver wavepipe.Observer
)

// isFlagSet reports whether the named flag was given on the command line
// (as opposed to sitting at its default value).
func isFlagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func main() {
	table := flag.Int("table", 0, "regenerate table N (1-4)")
	fig := flag.String("fig", "", "regenerate figure: stepsize, accuracy, scaling, work, fwp, ablation, windowscale, reducescale")
	all := flag.Bool("all", false, "regenerate every table and figure")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON metrics (see -bench, -devbypass)")
	benchName := flag.String("bench", "grid16", "circuit for -json and the -fig windowscale/reducescale sweeps (a suite name, or all)")
	devBypass := flag.Bool("devbypass", false, "enable incremental assembly (the linear-stamp template) for the -json run")
	maxCores := flag.Int("maxcores", 0, "largest core budget for -fig windowscale (0 = NumCPU)")
	flag.Parse()

	if *deadline != "" {
		d, err := time.ParseDuration(*deadline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wavebench: bad -deadline:", err)
			os.Exit(2)
		}
		benchDeadline = d
	}

	var traceRec *wavepipe.TraceRecorder
	var observers []wavepipe.Observer
	if *tracePath != "" {
		// Default-sized ring: -all regenerations emit far more events than a
		// single run and only the most recent window is usually of interest.
		traceRec = wavepipe.NewTraceRecorder(-1)
		observers = append(observers, traceRec)
	}
	if *metricsAddr != "" {
		m := wavepipe.NewTraceMetrics()
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wavebench: metrics listener:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wavebench: serving metrics on http://%s/metrics\n", ln.Addr())
		go func() {
			srv := &http.Server{Handler: m.Handler(), ReadHeaderTimeout: 5 * time.Second}
			_ = srv.Serve(ln)
		}()
		observers = append(observers, m)
	}
	if len(observers) > 0 {
		benchObserver = wavepipe.MultiObserver(observers...)
	}
	defer func() {
		if traceRec == nil {
			return
		}
		if err := writeTrace(*tracePath, traceRec); err != nil {
			fmt.Fprintln(os.Stderr, "wavebench: trace:", err)
		}
	}()

	// The figures below are resolved before the -json early return: with -json
	// they emit the sweep as JSON records instead of CSV text.
	if *fig == "windowscale" {
		name := *benchName
		if !isFlagSet("bench") {
			name = "" // default to the ladder400+grid16 pair, not grid16
		}
		if err := figWindowScale(name, *maxCores, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "wavebench:", err)
			os.Exit(1)
		}
		return
	}
	if *fig == "reducescale" {
		name := *benchName
		if !isFlagSet("bench") {
			name = "" // default to the full ladder sweep + grid16 control
		}
		if err := figReduceScale(name, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "wavebench:", err)
			os.Exit(1)
		}
		return
	}
	if *jsonOut {
		if err := jsonMetrics(*benchName, *devBypass); err != nil {
			fmt.Fprintln(os.Stderr, "wavebench:", err)
			os.Exit(1)
		}
		return
	}
	if !*all && *table == 0 && *fig == "" {
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("wavebench: GOMAXPROCS=%d quick=%v reps=%d\n", runtime.GOMAXPROCS(0), *quick, *reps)
	fmt.Println("speedups use the pipeline critical-path timing model (measured per-solve")
	fmt.Println("times, max over concurrent workers per stage); wall(ms) is the host's")
	fmt.Println("actual 1-socket wall clock and matches the model when enough cores exist.")
	fmt.Println()

	run := func(name string, f func() error) {
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "wavebench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *all || *table == 1 {
		run("table1", table1)
	}
	if *all || *table == 2 {
		run("table2", table2)
	}
	if *all || *table == 3 {
		run("table3", table3)
	}
	if *all || *table == 4 {
		run("table4", table4)
	}
	if *all || *fig == "stepsize" {
		run("stepsize", figStepSize)
	}
	if *all || *fig == "accuracy" {
		run("accuracy", figAccuracy)
	}
	if *all || *fig == "scaling" {
		run("scaling", figScaling)
	}
	if *all || *fig == "work" {
		run("work", figWork)
	}
	if *all || *fig == "fwp" {
		run("fwp", figFWP)
	}
	if *all || *fig == "ablation" {
		run("ablation", figAblation)
	}
}

func window(b circuits.Benchmark) float64 {
	if *quick {
		return b.TStop / 5
	}
	return b.TStop
}

// build compiles a benchmark circuit once; systems are immutable and safe
// to reuse across engine runs.
func build(b circuits.Benchmark) (*circuit.System, error) {
	return b.Make().Build()
}

// timed runs a configuration reps times and returns the fastest wall time
// with the (identical) result. The shared -trace/-metrics-addr observer is
// attached here so every measured run across every table and figure feeds
// the same telemetry stream.
func timed(sys *circuit.System, opts wavepipe.TranOptions) (time.Duration, *wavepipe.Result, error) {
	opts.Observer = benchObserver
	opts.Deadline = benchDeadline
	var best time.Duration
	var bestCrit int64
	var res *wavepipe.Result
	for i := 0; i < *reps; i++ {
		// GC pauses land inside individual per-solve measurements and bias
		// the per-stage max() statistic; collect up front and pause the
		// collector for the timed region.
		runtime.GC()
		old := debug.SetGCPercent(-1)
		start := time.Now()
		r, err := wavepipe.RunTransient(sys, opts)
		d := time.Since(start)
		debug.SetGCPercent(old)
		if err != nil {
			return 0, nil, err
		}
		if i == 0 || r.Stats.CriticalNanos < bestCrit {
			best = d
			bestCrit = r.Stats.CriticalNanos
			res = r
		}
	}
	return best, res, nil
}

func table1() error {
	fmt.Println("Table 1: benchmark circuit characteristics (reconstructed)")
	fmt.Printf("%-10s %-8s %8s %9s %9s %12s\n", "circuit", "kind", "nodes", "devices", "unknowns", "tran window")
	for _, b := range circuits.Suite() {
		st, err := b.Describe()
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %-8s %8d %9d %9d %12.3g\n", b.Name, b.Kind, st.Nodes, st.Devices, st.Unknowns, window(b))
	}
	return nil
}

// speedupTable measures one scheme at the given thread counts against the
// serial baseline.
func speedupTable(title string, scheme wavepipe.Scheme, threadCounts []int) error {
	fmt.Println(title)
	header := fmt.Sprintf("%-10s %10s %8s", "circuit", "serial(ms)", "points")
	for _, th := range threadCounts {
		header += fmt.Sprintf(" %11s %8s %7s", fmt.Sprintf("%dT(ms)", th), "speedup", "stages")
	}
	fmt.Println(header)
	type acc struct {
		sum float64
		n   int
	}
	sums := make([]acc, len(threadCounts))
	for _, b := range circuits.Suite() {
		sys, err := build(b)
		if err != nil {
			return err
		}
		base := wavepipe.TranOptions{TStop: window(b), Record: []string{b.Probe}}
		_, serialRes, err := timed(sys, base)
		if err != nil {
			return err
		}
		serialCrit := serialRes.Stats.CriticalNanos
		row := fmt.Sprintf("%-10s %10.2f %8d", b.Name, nanosMS(serialCrit), serialRes.Stats.Points)
		for i, th := range threadCounts {
			opts := base
			opts.Scheme = scheme
			opts.Threads = th
			_, res, err := timed(sys, opts)
			if err != nil {
				return err
			}
			sp := float64(serialCrit) / float64(res.Stats.CriticalNanos)
			sums[i].sum += sp
			sums[i].n++
			row += fmt.Sprintf(" %11.2f %8.2f %7d", nanosMS(res.Stats.CriticalNanos), sp, res.Stats.Stages)
		}
		fmt.Println(row)
	}
	avg := fmt.Sprintf("%-10s %10s %8s", "average", "", "")
	for _, a := range sums {
		avg += fmt.Sprintf(" %11s %8.2f %7s", "", a.sum/float64(a.n), "")
	}
	fmt.Println(avg)
	return nil
}

func nanosMS(n int64) float64 { return float64(n) / 1e6 }

func table2() error {
	return speedupTable(
		"Table 2: backward pipelining (BWP) speedup vs serial Gear-2 (reconstructed)",
		wavepipe.Backward, []int{2, 3})
}

func table3() error {
	return speedupTable(
		"Table 3: forward pipelining (FWP) speedup vs serial Gear-2 (reconstructed)",
		wavepipe.Forward, []int{2})
}

func table4() error {
	return speedupTable(
		"Table 4: combined WavePipe speedup vs serial Gear-2 (reconstructed)",
		wavepipe.Combined, []int{3, 4})
}

func figStepSize() error {
	fmt.Println("Figure F1: time-step trace, serial vs backward pipelining (CSV)")
	for _, name := range []string{"rect1k", "amp10M"} {
		b, ok := findBench(name)
		if !ok {
			return fmt.Errorf("no benchmark %s", name)
		}
		sys, err := build(b)
		if err != nil {
			return err
		}
		base := wavepipe.TranOptions{TStop: window(b), Record: []string{b.Probe}}
		_, serial, err := timed(sys, base)
		if err != nil {
			return err
		}
		opts := base
		opts.Scheme = wavepipe.Backward
		opts.Threads = 2
		_, bw, err := timed(sys, opts)
		if err != nil {
			return err
		}
		fmt.Printf("# circuit=%s columns: engine,time,step\n", b.Name)
		emit := func(tag string, res *wavepipe.Result) {
			steps := res.W.StepSizes()
			for i, h := range steps {
				fmt.Printf("%s,%.6g,%.6g\n", tag, res.W.Times[i+1], h)
			}
		}
		emit("serial", serial)
		emit("bwp2", bw)
		// Summary line for quick reading.
		fmt.Printf("# %s: serial points=%d, bwp2 stages=%d (critical path), bwp2 points=%d\n",
			b.Name, serial.Stats.Points, bw.Stats.Stages, bw.Stats.Points)
	}
	return nil
}

func figAccuracy() error {
	fmt.Println("Figure F2: accuracy vs serial reference (max / RMS deviation, relative to signal range)")
	fmt.Printf("%-10s %-10s %12s %12s %12s\n", "circuit", "scheme", "max(V)", "rms(V)", "rel-max")
	for _, name := range []string{"ring9", "rect1k", "inv50"} {
		b, ok := findBench(name)
		if !ok {
			return fmt.Errorf("no benchmark %s", name)
		}
		sys, err := build(b)
		if err != nil {
			return err
		}
		base := wavepipe.TranOptions{TStop: window(b), Record: []string{b.Probe}}
		_, ref, err := timed(sys, base)
		if err != nil {
			return err
		}
		for _, s := range []wavepipe.Scheme{wavepipe.Backward, wavepipe.Forward, wavepipe.Combined} {
			opts := base
			opts.Scheme = s
			opts.Threads = 4
			_, res, err := timed(sys, opts)
			if err != nil {
				return err
			}
			dev, err := wavepipe.Compare(res.W, ref.W, b.Probe)
			if err != nil {
				return err
			}
			fmt.Printf("%-10s %-10s %12.3e %12.3e %12.5f\n", b.Name, s, dev.Max, dev.RMS, dev.RelMax())
		}
	}
	return nil
}

func figScaling() error {
	fmt.Println("Figure F3: speedup vs thread count (CSV: scheme,threads,speedup)")
	b, _ := findBench("grid24")
	sys, err := build(b)
	if err != nil {
		return err
	}
	base := wavepipe.TranOptions{TStop: window(b), Record: []string{b.Probe}}
	_, serialRes, err := timed(sys, base)
	if err != nil {
		return err
	}
	serialCrit := serialRes.Stats.CriticalNanos
	fmt.Printf("serial,1,1.00\n")
	type cfg struct {
		scheme  wavepipe.Scheme
		threads []int
	}
	for _, c := range []cfg{
		{wavepipe.Backward, []int{2, 3, 4}},
		{wavepipe.Forward, []int{2}},
		{wavepipe.Combined, []int{3, 4}},
	} {
		for _, th := range c.threads {
			opts := base
			opts.Scheme = c.scheme
			opts.Threads = th
			_, res, err := timed(sys, opts)
			if err != nil {
				return err
			}
			fmt.Printf("%s,%d,%.2f\n", c.scheme, th, float64(serialCrit)/float64(res.Stats.CriticalNanos))
		}
	}
	return nil
}

func figWork() error {
	fmt.Println("Figure F4: work overhead — WavePipe computes more points but finishes earlier")
	fmt.Printf("%-10s %-10s %8s %8s %10s %10s\n", "circuit", "scheme", "points", "stages", "nr-iters", "discarded")
	for _, b := range circuits.Suite() {
		sys, err := build(b)
		if err != nil {
			return err
		}
		base := wavepipe.TranOptions{TStop: window(b), Record: []string{b.Probe}}
		for _, s := range []wavepipe.Scheme{wavepipe.Serial, wavepipe.Backward, wavepipe.Combined} {
			opts := base
			opts.Scheme = s
			opts.Threads = 4
			_, res, err := timed(sys, opts)
			if err != nil {
				return err
			}
			fmt.Printf("%-10s %-10s %8d %8d %10d %10d\n",
				b.Name, s, res.Stats.Points, res.Stats.Stages, res.Stats.NRIters, res.Stats.Discarded)
		}
	}
	return nil
}

// figFWP shows that forward pipelining's gain tracks the per-point Newton
// cost: circuits whose models converge in ~2 iterations leave nothing to
// overlap, while junction-limited BJT circuits (the stand-in for the
// paper's BSIM-class models) give the speculative phase real latency to
// hide.
func figFWP() error {
	fmt.Println("Figure F5: forward pipelining gain vs per-point Newton cost")
	fmt.Println("(looser tolerances take larger steps, making each point cost more Newton")
	fmt.Println("iterations - emulating the heavier per-point cost of BSIM-class models)")
	fmt.Printf("%-10s %8s %12s %10s %10s %10s\n", "circuit", "reltol", "iters/solve", "serial(ms)", "fwp2(ms)", "speedup")
	for _, name := range []string{"inv50", "ekv30", "rect1k", "ecl8"} {
		b, ok := findBench(name)
		if !ok {
			return fmt.Errorf("no benchmark %s", name)
		}
		sys, err := build(b)
		if err != nil {
			return err
		}
		for _, reltol := range []float64{1e-3, 1e-2} {
			base := wavepipe.TranOptions{TStop: window(b), Record: []string{b.Probe}, RelTol: reltol}
			_, serialRes, err := timed(sys, base)
			if err != nil {
				return err
			}
			opts := base
			opts.Scheme = wavepipe.Forward
			opts.Threads = 2
			_, res, err := timed(sys, opts)
			if err != nil {
				return err
			}
			iters := float64(serialRes.Stats.NRIters) / float64(serialRes.Stats.Solves)
			fmt.Printf("%-10s %8.0e %12.2f %10.2f %10.2f %10.2f\n", b.Name, reltol, iters,
				nanosMS(serialRes.Stats.CriticalNanos), nanosMS(res.Stats.CriticalNanos),
				float64(serialRes.Stats.CriticalNanos)/float64(res.Stats.CriticalNanos))
		}
	}
	return nil
}

func figAblation() error {
	fmt.Println("Ablation A1: backward offset ratio δ/h sweep (grid16, 2 threads)")
	fmt.Printf("%-8s %10s %8s %10s\n", "delta", "wall(ms)", "speedup", "stages")
	b, _ := findBench("grid16")
	sys, err := build(b)
	if err != nil {
		return err
	}
	base := wavepipe.TranOptions{TStop: window(b), Record: []string{b.Probe}}
	_, serialRes, err := timed(sys, base)
	if err != nil {
		return err
	}
	serialCrit := serialRes.Stats.CriticalNanos
	for _, delta := range []float64{0.05, 0.1, 0.2, 0.3, 0.5} {
		opts := base
		opts.Scheme = wavepipe.Backward
		opts.Threads = 2
		opts.DeltaRatio = delta
		_, res, err := timed(sys, opts)
		if err != nil {
			return err
		}
		fmt.Printf("%-8.2f %10.2f %8.2f %10d\n", delta,
			nanosMS(res.Stats.CriticalNanos), float64(serialCrit)/float64(res.Stats.CriticalNanos), res.Stats.Stages)
	}
	return nil
}

func findBench(name string) (circuits.Benchmark, bool) {
	for _, b := range circuits.Suite() {
		if b.Name == name {
			return b, true
		}
	}
	return circuits.Benchmark{}, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeTrace exports the recorded event stream: JSONL for .jsonl paths,
// Chrome trace_event JSON otherwise.
func writeTrace(path string, rec *wavepipe.TraceRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if rec.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "wavebench: trace ring dropped %d oldest events\n", rec.Dropped())
	}
	if strings.HasSuffix(strings.ToLower(path), ".jsonl") {
		err = wavepipe.WriteTraceJSONL(f, rec.Events(), rec.Snapshots())
	} else {
		err = wavepipe.WriteChromeTrace(f, rec.Events(), rec.Snapshots())
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
