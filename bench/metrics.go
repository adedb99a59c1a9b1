package main

import (
	"math"
	"sort"
)

// measured is one metric value as written to the result file. Timings carry
// their sample count, quartiles and the highest percentile that still has
// ten samples beyond it; counts and ratios carry only the value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Hi    float64 `json:"hi,omitempty"`
	HiPct float64 `json:"hi_pct,omitempty"`
}

// perLayerUnits names every per-layer metric the benchmark emits, with its
// unit; the four end-to-end metrics are filled in by runWorkload.
// BENCHMARK.json repeats the names with direction and bound, and
// bench_test.go checks that the two agree.
var perLayerUnits = map[string]string{
	"bench.raw_wall_s":  "s",
	"bench.raw_setup_s": "s",
	"bench.calib_s":     "s",

	"netlist.parse_s":    "s",
	"netlist.deck_bytes": "count",

	"artifact.compile_miss_s": "s",
	"artifact.compile_hit_s":  "s",
	"artifact.hit_ratio":      "ratio",

	"reduce.plan_apply_s":  "s",
	"reduce.nodes_removed": "count",
	"reduce.node_ratio":    "ratio",

	"circuit.build_s":              "s",
	"circuit.build_cold_s":         "s",
	"circuit.unknowns":             "count",
	"circuit.load_s":               "s",
	"circuit.load_share":           "ratio",
	"circuit.load_ns_op":           "ns",
	"circuit.batchload_ns_lane_op": "ns",

	"sparse.factor_s":                "s",
	"sparse.trisolve_s":              "s",
	"sparse.factor_share":            "ratio",
	"sparse.refactor_ns_op":          "ns",
	"sparse.solve_ns_op":             "ns",
	"sparse.full_factorizations":     "count",
	"sparse.refactorizations":        "count",
	"sparse.bypassed_factorizations": "count",

	"dcop.solve_s": "s",
	"dcop.iters":   "count",

	"newton.iters":           "count",
	"newton.iters_per_solve": "ratio",
	"newton.failures":        "count",

	"integrate.lte_s":       "s",
	"integrate.lte_rejects": "count",

	"transient.points":        "count",
	"transient.solves":        "count",
	"transient.control_s":     "s",
	"transient.control_share": "ratio",
	"transient.alloc_mb":      "MB",
	"transient.allocs":        "count",
	"transient.pass_hi_s":     "s",

	"wavepipe.speedup_wall":  "ratio",
	"wavepipe.speedup_model": "ratio",
	"wavepipe.model_gap":     "ratio",
	"wavepipe.stages":        "count",
	"wavepipe.discarded":     "count",
	"wavepipe.useful_ratio":  "ratio",
	"wavepipe.worker_busy_s": "s",
	"wavepipe.stage_wait_s":  "s",

	"sched.cpu_per_wall":        "ratio",
	"sched.pipeline_workers":    "count",
	"sched.intra_workers":       "count",
	"sched.pipeline_serialized": "count",
	"sched.preemptions":         "count",
	"sched.rejected":            "count",

	"windows.launched":       "count",
	"windows.redos":          "count",
	"windows.parareal_iters": "count",
	"windows.useful_ratio":   "ratio",
	"windows.speedup_wall":   "ratio",

	"ensemble.rounds":            "count",
	"ensemble.lane_points_per_s": "1/s",
	"ensemble.speedup_wall":      "ratio",

	"checkpoint.encode_s": "s",
	"checkpoint.decode_s": "s",
	"checkpoint.bytes":    "count",
	"checkpoint.write_s":  "s",

	"trace.overhead_ratio": "ratio",
	"trace.events":         "count",

	"wire.encode_result_s": "s",
	"wire.decode_result_s": "s",
	"wire.result_bytes":    "count",

	"server.submit_rtt_s":        "s",
	"server.stream_points_per_s": "1/s",
	"client.wait_s":              "s",

	"service.jobs_per_s":           "1/s",
	"service.job_first_point_s":    "s",
	"service.job_done_s":           "s",
	"service.submit_cold_s":        "s",
	"service.submit_warm_s":        "s",
	"service.overhead_ratio":       "ratio",
	"service.job_done_hi_s":        "s",
	"service.live_heap_per_job_kb": "KB",
}

// quantile interpolates linearly between order statistics (q in [0,1]).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// timing summarizes a set of timing samples: the median, the quartiles and
// the highest percentile with at least ten samples beyond it (the maximum
// when there are too few samples for that).
func timing(v []float64, unit string) measured {
	if len(v) == 0 {
		return measured{Unit: unit}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := measured{Value: quantile(s, 0.5), Unit: unit, N: len(s), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	hi := len(s) - 1
	if len(s) > 10 {
		hi = len(s) - 11
	}
	m.Hi, m.HiPct = s[hi], 100*float64(hi+1)/float64(len(s))
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
