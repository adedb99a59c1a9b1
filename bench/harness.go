package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// The timed passes are calibrated in at most passStretches stretches — one
// pass each where a workload makes no more passes than that — and the set-up
// repetitions, far shorter, in setupStretches.
const passStretches, setupStretches = 20, 10

// defaultSeconds is the run length the fixed pass counts are sized for;
// another -seconds scales them in proportion.
const defaultSeconds = 12

var workloadNames = []string{
	"mesh_serial", "digital_serial", "pipeline_2t", "ensemble_k8",
	"windows_4w", "reduce_ladder", "service_http",
}

// workload is what the harness drives: repeated set-up, one round of
// reference runs, fixed passes of runs, and the direct layer timings.
type workload interface {
	counts() (passes, setupReps int)
	setup(sp *spans, parent int) (setupTimes, error)
	references(ctx context.Context) error
	pass(ctx context.Context, sp *spans, parent, p int) passResult
	layers(ctx context.Context, sp *spans, parent int, rep *report) error
	close()
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool // also make the traced pass and report per-layer metrics
	nproc   int
	dir     string // scratch and trace output, inside the checkout
	// tiny is the smoke test's setting: one set-up, one pass and no warm-up
	// pass, with every generated circuit's horizon cut to a quarter.
	tiny bool
}

func newWorkload(name string, rc runConfig) (workload, error) {
	w, err := newFullWorkload(name, rc)
	if e, ok := w.(*engineWL); ok && rc.tiny {
		for _, u := range e.units {
			u.tstop /= 4
		}
	}
	return w, err
}

func newFullWorkload(name string, rc runConfig) (workload, error) {
	switch name {
	case "mesh_serial":
		return newMeshSerial(), nil
	case "digital_serial":
		return newDigitalSerial(), nil
	case "pipeline_2t":
		return newPipeline2T(), nil
	case "ensemble_k8":
		return newEnsembleK8(rc.seed, rc.nproc), nil
	case "windows_4w":
		return newWindows4W(rc.nproc), nil
	case "reduce_ladder":
		return newReduceLadder()
	case "service_http":
		return newServiceHTTP(rc.seed, rc.nproc, rc.dir)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// report is everything one workload measured.
type report struct {
	Name      string              `json:"name"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Passes    int                 `json:"passes"`
	SetupReps int                 `json:"setup_reps"`
	EndToEnd  map[string]measured `json:"end_to_end"`
	PerLayer  map[string]measured `json:"per_layer,omitempty"`
	// Clock holds the timings as the clock read them, before scaling to the
	// nominal host speed, and the calibration loop's own times.
	Clock map[string]measured `json:"clock"`
	// Details holds the rows behind the aggregates: one per circuit and
	// configuration, each ratio beside its base.
	Details   []detailRow `json:"details,omitempty"`
	Problems  []string    `json:"problems,omitempty"`
	TraceFile string      `json:"trace_file,omitempty"`
}

// detailRow is one circuit under one configuration over the timed passes.
// A configuration with an interleaved serial (or in-process) baseline
// carries its ratios and the bases they divide by.
type detailRow struct {
	Unit          string  `json:"unit"`
	Config        string  `json:"config"`
	Runs          int     `json:"runs"`
	Points        int     `json:"points"`
	WallS         float64 `json:"wall_s"`
	MaxDev        float64 `json:"max_dev"`
	FirstPointS   float64 `json:"first_point_s,omitempty"`
	SubmitS       float64 `json:"submit_s,omitempty"`
	BaseWallS     float64 `json:"base_wall_s,omitempty"`
	SpeedupWall   float64 `json:"speedup_wall,omitempty"`
	OverheadRatio float64 `json:"overhead_ratio,omitempty"`
	CritS         float64 `json:"crit_s,omitempty"`
	BaseCritS     float64 `json:"base_crit_s,omitempty"`
	SpeedupModel  float64 `json:"speedup_model,omitempty"`
	ModelGap      float64 `json:"model_gap,omitempty"`
}

func (r *report) set(name string, v float64) {
	r.PerLayer[name] = measured{Value: v, Unit: perLayerUnits[name]}
}

func (r *report) add(name string, v float64) { r.set(name, r.PerLayer[name].Value+v) }

func (r *report) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// absorb counts a pass's runs as attempts and its errors as failures.
func (r *report) absorb(pr passResult, pass int) {
	for _, s := range pr.samples {
		r.Attempted++
		if s.err != nil {
			r.Failed++
			r.problem("pass %d %s/%s: %v", pass, s.unit, s.cfg, s.err)
		}
	}
}

// exactCounters are the columns that must repeat on every pass of the
// serial workloads.
func exactCounters(pr passResult) [5]int {
	var c [5]int
	for _, s := range pr.samples {
		c[0] += s.stats.Points
		c[1] += s.stats.Solves
		c[2] += s.stats.NRIters
		c[3] += s.stats.Refactorizations
		c[4] += s.stats.FullFactorizations
	}
	return c
}

func runWorkload(ctx context.Context, name string, rc runConfig) (*report, error) {
	w, err := newWorkload(name, rc)
	if err != nil {
		return nil, err
	}
	defer w.close()
	passes, reps := w.counts()
	passes = int(math.Max(3, math.Round(float64(passes)*rc.seconds/defaultSeconds)))
	if rc.tiny {
		passes, reps = 1, 1
	}
	rep := &report{Name: name, Passes: passes, SetupReps: reps, EndToEnd: map[string]measured{}, Clock: map[string]measured{}}

	// The first set-up of the process: its build finds the ordering cache
	// empty. The timed repetitions come last, once the process is warm.
	cold, err := w.setup(nil, 0)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := w.references(ctx); err != nil {
		return nil, err
	}
	if !rc.tiny {
		// One untimed pass lets caches fill and lazy set-up finish.
		rep.absorb(w.pass(ctx, nil, 0, -1), -1)
	}

	cal := theCalibrator()
	heap0 := liveHeapMB()
	timed := make([]passResult, passes)
	allocMB, allocs := make([]float64, passes), make([]float64, passes)
	// A pass reports its errors in its samples, so this never fails.
	rawWalls, walls, passCal, _ := cal.calibrated(passes, passStretches, func(p int) (time.Duration, error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		timed[p] = w.pass(ctx, nil, 0, p)
		runtime.ReadMemStats(&m1)
		allocMB[p] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		allocs[p] = float64(m1.Mallocs - m0.Mallocs)
		rep.absorb(timed[p], p)
		return timed[p].wall, nil
	})
	heap := liveHeapMB()

	if e, ok := w.(*engineWL); ok && e.exact {
		for p := 1; p < passes; p++ {
			if a, b := exactCounters(timed[0]), exactCounters(timed[p]); a != b {
				rep.problem("pass %d counters %v differ from pass 0 %v", p, b, a)
			}
		}
	}

	maxDev, jobs := 0.0, 0
	for _, pr := range timed {
		for _, s := range pr.samples {
			maxDev = math.Max(maxDev, s.dev)
			if s.timed {
				jobs++
			}
		}
	}
	rep.EndToEnd["wall_s"] = timing(walls, "s")
	rep.Clock["bench.raw_wall_s"] = timing(rawWalls, "s")
	rep.Clock["bench.calib_s"] = timing(passCal, "s")
	rep.EndToEnd["max_dev"] = measured{Value: maxDev, Unit: "ratio"}
	rep.EndToEnd["live_heap_mb"] = measured{Value: heap, Unit: "MB"}
	rep.Details = detailRows(timed)

	var sp *spans
	if rc.trace {
		rep.PerLayer = map[string]measured{}
		for n := range perLayerUnits {
			rep.set(n, 0)
		}
		rep.fromPasses(name, timed)
		rep.set("transient.alloc_mb", median(allocMB))
		rep.set("transient.allocs", median(allocs))
		rep.set("transient.pass_hi_s", rep.Clock["bench.raw_wall_s"].Hi)
		if name == "service_http" {
			rep.set("service.live_heap_per_job_kb", (heap-heap0)*1024/float64(jobs))
		}

		sp = newSpans()
		root := sp.begin("bench", "pass", 0, 0)
		traced := w.pass(ctx, sp, root, passes)
		sp.end(root)
		rep.absorb(traced, passes)
		rep.fromTrace(sp, traced)
		rep.set("trace.overhead_ratio", ratio(traced.wall.Seconds(), rep.Clock["bench.raw_wall_s"].Value))

		root = sp.begin("bench", "layers", 0, 0)
		if err := w.layers(ctx, sp, root, rep); err != nil {
			return nil, fmt.Errorf("layer timings: %w", err)
		}
		sp.end(root)
	}

	runtime.GC()
	setups := make([]setupTimes, reps)
	rawTotals, totals, _, err := cal.calibrated(reps, setupStretches, func(i int) (time.Duration, error) {
		var err error
		setups[i], err = w.setup(nil, 0)
		return setups[i].total, err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep.EndToEnd["setup_s"] = timing(totals, "s")
	rep.Clock["bench.raw_setup_s"] = timing(rawTotals, "s")

	if rc.trace {
		for n, m := range rep.Clock {
			rep.set(n, m.Value)
		}
		rep.fromSetups(cold, setups)
		root := sp.begin("bench", "set-up", 0, 0)
		if _, err := w.setup(sp, root); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		sp.end(root)
		if err := os.MkdirAll(rc.dir, 0o755); err != nil {
			return nil, err
		}
		rep.TraceFile = filepath.Join(rc.dir, fmt.Sprintf("trace-%s-seed%d.json", name, rc.seed))
		if err := sp.writeChrome(rep.TraceFile); err != nil {
			return nil, err
		}
	}
	rep.Correct = rep.Failed == 0 && len(rep.Problems) == 0
	return rep, nil
}

// fromSetups fills the set-up layers: medians over the repetitions, and the
// build of the process's first set-up.
func (r *report) fromSetups(cold setupTimes, setups []setupTimes) {
	col := func(f func(setupTimes) float64) float64 {
		v := make([]float64, len(setups))
		for i, st := range setups {
			v[i] = f(st)
		}
		return median(v)
	}
	st := setups[0]
	// Added, not set: service_http parses nothing in set-up and has timed
	// the parser on its decks directly.
	r.add("netlist.parse_s", col(func(s setupTimes) float64 { return s.parse.Seconds() }))
	r.add("netlist.deck_bytes", float64(st.deckBytes))
	r.set("reduce.plan_apply_s", col(func(s setupTimes) float64 { return s.reduce.Seconds() }))
	r.set("reduce.nodes_removed", float64(st.nodesRemoved))
	r.set("reduce.node_ratio", ratio(float64(st.nodesRemoved), float64(st.nodesBefore)))
	r.set("circuit.build_s", col(func(s setupTimes) float64 { return s.build.Seconds() }))
	r.set("circuit.build_cold_s", cold.build.Seconds())
	r.set("circuit.unknowns", float64(st.unknowns))
}

// group is every sample of one unit and configuration over the timed passes.
type group struct {
	unit, cfg  string
	wall, crit []float64
	laneWall   map[int][]float64
	dev        float64
	points     int
	first, sub []float64
	isJob      bool
}

func groups(passes []passResult) []*group {
	idx := map[string]*group{}
	var out []*group
	for _, pr := range passes {
		for _, s := range pr.samples {
			g := idx[s.unit+"/"+s.cfg]
			if g == nil {
				g = &group{unit: s.unit, cfg: s.cfg, laneWall: map[int][]float64{}}
				idx[s.unit+"/"+s.cfg] = g
				out = append(out, g)
			}
			g.wall = append(g.wall, s.wall.Seconds())
			g.crit = append(g.crit, float64(s.stats.CriticalNanos)/1e9)
			if s.lane >= 0 {
				g.laneWall[s.lane] = append(g.laneWall[s.lane], s.wall.Seconds())
			}
			g.dev = math.Max(g.dev, s.dev)
			g.points = s.stats.Points
			if s.submit > 0 {
				g.isJob = true
				g.first = append(g.first, s.first.Seconds())
				g.sub = append(g.sub, s.submit.Seconds())
			}
		}
	}
	return out
}

// baseWall is the serial wall the group's speed-up divides by: the median
// of the interleaved serial runs, or for lane baselines the lanes' medians
// summed (unsampled lanes counted at the mean of the sampled ones).
func (g *group) baseWall() float64 {
	if len(g.laneWall) == 0 {
		return median(g.wall)
	}
	t := 0.0
	for _, v := range g.laneWall {
		t += median(v)
	}
	return t / float64(len(g.laneWall)) * ensembleLanes
}

// detailRows gives one row per unit and configuration.
func detailRows(passes []passResult) []detailRow {
	gs := groups(passes)
	base := map[string]*group{}
	for _, g := range gs {
		if g.cfg == "serial" || g.cfg == "inprocess" {
			base[g.unit] = g
		}
	}
	var rows []detailRow
	for _, g := range gs {
		row := detailRow{Unit: g.unit, Config: g.cfg, Runs: len(g.wall), Points: g.points, WallS: median(g.wall), MaxDev: g.dev}
		b := base[g.unit]
		switch {
		case b == nil || b == g:
		case g.isJob:
			row.FirstPointS, row.SubmitS = median(g.first), median(g.sub)
			row.BaseWallS = b.baseWall()
			row.OverheadRatio = ratio(row.WallS, row.BaseWallS)
		default:
			row.BaseWallS = b.baseWall()
			row.SpeedupWall = ratio(row.BaseWallS, row.WallS)
			if len(b.laneWall) == 0 { // lanes and their gang have no common model base
				row.CritS, row.BaseCritS = median(g.crit), median(b.crit)
				row.SpeedupModel = ratio(row.BaseCritS, row.CritS)
				row.ModelGap = ratio(row.SpeedupModel, row.SpeedupWall)
			}
		}
		rows = append(rows, row)
	}
	// Jobs arrive shuffled; sorting keeps the rows of two runs side by side.
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Unit < rows[j].Unit })
	return rows
}

// fromPasses fills the layers that the runs' own counters and the
// benchmark's clocks around them describe.
func (r *report) fromPasses(name string, passes []passResult) {
	perPass := func(keep func(sample) bool, f func(sample) float64) float64 {
		v := make([]float64, len(passes))
		for p, pr := range passes {
			for _, s := range pr.samples {
				if keep == nil || keep(s) {
					v[p] += f(s)
				}
			}
		}
		return median(v)
	}
	count := func(f func(sample) float64) float64 { return perPass(nil, f) }

	solves := count(func(s sample) float64 { return float64(s.stats.Solves) })
	iters := count(func(s sample) float64 { return float64(s.stats.NRIters) })
	rejects := count(func(s sample) float64 { return float64(s.stats.LTERejects) })
	r.set("transient.points", count(func(s sample) float64 { return float64(s.stats.Points) }))
	r.set("transient.solves", solves)
	r.set("newton.iters", iters)
	r.set("newton.iters_per_solve", ratio(iters, solves))
	r.set("newton.failures", count(func(s sample) float64 { return float64(s.stats.NRFailures) }))
	r.set("integrate.lte_rejects", rejects)
	r.set("sparse.full_factorizations", count(func(s sample) float64 { return float64(s.stats.FullFactorizations) }))
	r.set("sparse.refactorizations", count(func(s sample) float64 { return float64(s.stats.Refactorizations) }))
	r.set("sparse.bypassed_factorizations", count(func(s sample) float64 { return float64(s.stats.BypassedFactorizations) }))

	var cpu, busy float64
	workers, intra := 0, 0
	for _, pr := range passes {
		cpu += pr.cpu.Seconds()
		busy += pr.busy.Seconds()
		for _, s := range pr.samples {
			workers = max(workers, s.stats.PipelineWorkers)
			intra = max(intra, s.stats.IntraWorkers)
		}
	}
	r.set("sched.cpu_per_wall", ratio(cpu, busy))
	r.set("sched.pipeline_workers", float64(workers))
	r.set("sched.intra_workers", float64(intra))
	r.set("sched.pipeline_serialized", count(func(s sample) float64 {
		if s.stats.PipelineSerialized {
			return 1
		}
		return 0
	}))

	// Speed-ups: Σ of the serial bases over Σ of the timed configurations.
	var baseW, cfgW, baseC, cfgC float64
	for _, row := range r.Details {
		if row.BaseWallS > 0 {
			baseW += row.BaseWallS
			cfgW += row.WallS
			baseC += row.BaseCritS
			cfgC += row.CritS
		}
	}
	timedOnly := func(s sample) bool { return s.timed }
	switch name {
	case "pipeline_2t":
		ps := perPass(timedOnly, func(s sample) float64 { return float64(s.stats.Solves) })
		pd := perPass(timedOnly, func(s sample) float64 { return float64(s.stats.Discarded) })
		pr := perPass(timedOnly, func(s sample) float64 { return float64(s.stats.LTERejects) })
		r.set("wavepipe.speedup_wall", ratio(baseW, cfgW))
		r.set("wavepipe.speedup_model", ratio(baseC, cfgC))
		r.set("wavepipe.model_gap", ratio(ratio(baseC, cfgC), ratio(baseW, cfgW)))
		r.set("wavepipe.stages", perPass(timedOnly, func(s sample) float64 { return float64(s.stats.Stages) }))
		r.set("wavepipe.discarded", pd)
		r.set("wavepipe.useful_ratio", ratio(ps-pd-pr, ps))
	case "windows_4w":
		launched := count(func(s sample) float64 { return float64(s.stats.WindowsLaunched) })
		fine := count(func(s sample) float64 { return float64(s.stats.PararealIters) })
		r.set("windows.launched", launched)
		r.set("windows.redos", count(func(s sample) float64 { return float64(s.stats.WindowRedos) }))
		r.set("windows.parareal_iters", fine)
		r.set("windows.useful_ratio", ratio(launched, fine))
		r.set("windows.speedup_wall", ratio(baseW, cfgW))
	case "ensemble_k8":
		r.set("ensemble.rounds", perPass(timedOnly, func(s sample) float64 { return float64(s.rounds) }))
		r.set("ensemble.lane_points_per_s", ratio(
			perPass(timedOnly, func(s sample) float64 { return float64(s.lanePts) }),
			perPass(timedOnly, func(s sample) float64 { return s.wall.Seconds() })))
		r.set("ensemble.speedup_wall", ratio(baseW, cfgW))
	case "service_http":
		r.fromJobs(passes, baseW, cfgW)
	}
}

// fromJobs fills the server, client and service layers from the jobs'
// client-side clocks.
func (r *report) fromJobs(passes []passResult, baseW, jobW float64) {
	var done, first, submit, cold, warm, wait []float64
	var streamS, batchS float64
	points := 0
	for _, pr := range passes {
		batchS += pr.wall.Seconds()
		for _, s := range pr.samples {
			if !s.timed || s.err != nil {
				continue
			}
			done = append(done, s.wall.Seconds())
			first = append(first, s.first.Seconds())
			submit = append(submit, s.submit.Seconds())
			wait = append(wait, s.wait.Seconds())
			if s.cold {
				cold = append(cold, s.submit.Seconds())
			} else {
				warm = append(warm, s.submit.Seconds())
			}
			streamS += s.stream.Seconds()
			points += s.lanePts
		}
	}
	d := timing(done, "s")
	r.set("service.jobs_per_s", ratio(float64(len(done)), batchS))
	r.set("service.job_first_point_s", median(first))
	r.set("service.job_done_s", d.Value)
	r.set("service.job_done_hi_s", d.Hi)
	r.set("service.submit_cold_s", median(cold))
	r.set("service.submit_warm_s", median(warm))
	r.set("service.overhead_ratio", ratio(jobW, baseW))
	r.set("server.submit_rtt_s", median(submit))
	r.set("server.stream_points_per_s", ratio(float64(points), streamS))
	r.set("client.wait_s", median(wait))
}

// budgetTolerance is how far a serial run's layer budget may be from its
// run span, as a share of the span.
const budgetTolerance = 0.02

// fromTrace fills the layers that only spans can split: the phase times
// inside the runs, their shares of the run spans, and the workers' waiting.
func (r *report) fromTrace(sp *spans, traced passResult) {
	budgets := sp.budgets()
	var total, piped budget
	for _, s := range traced.samples {
		b, ok := budgets[s.span]
		if !ok {
			continue
		}
		total.span += b.span
		total.load += b.load
		total.factor += b.factor
		total.trisolve += b.trisolve
		total.lte += b.lte
		total.self += b.self
		if b.busy > 0 {
			piped.busy += b.busy
			piped.span += b.span * float64(s.stats.PipelineWorkers)
		}
		if s.cfg == "serial" {
			sum := b.load + b.factor + b.trisolve + b.lte + b.self
			if off := math.Abs(sum-b.span) / b.span; off > budgetTolerance {
				r.problem("traced %s/%s: layer budget %.6fs is %.1f%% off the run span %.6fs", s.unit, s.cfg, sum, 100*off, b.span)
			}
		}
	}
	r.set("circuit.load_s", total.load)
	r.set("circuit.load_share", ratio(total.load, total.span))
	r.set("sparse.factor_s", total.factor)
	r.set("sparse.trisolve_s", total.trisolve)
	r.set("sparse.factor_share", ratio(total.factor, total.span))
	r.set("integrate.lte_s", total.lte)
	r.set("transient.control_s", total.self)
	r.set("transient.control_share", ratio(total.self, total.span))
	r.set("wavepipe.worker_busy_s", piped.busy)
	r.set("wavepipe.stage_wait_s", math.Max(0, piped.span-piped.busy))
	r.set("trace.events", float64(sp.events))
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
