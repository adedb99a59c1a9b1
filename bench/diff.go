package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json that -diff and the smoke test
// read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict compares one end-to-end metric of two result files under its
// bound. worse is the relative change in the metric's bad direction.
func verdict(spec metricSpec, old, cur measured) (worse float64, word string) {
	if old.Value == 0 {
		return 0, "unresolved (old value is 0)"
	}
	worse = (cur.Value - old.Value) / math.Abs(old.Value)
	if spec.Better == "higher" {
		worse = -worse
	}
	// A timing's spread is the distance between its quartiles over the
	// median, the wider of the two inputs.
	spread := 0.0
	for _, m := range []measured{old, cur} {
		if m.N > 0 && m.Value != 0 {
			spread = math.Max(spread, (m.Q3-m.Q1)/math.Abs(m.Value))
		}
	}
	switch {
	case spread > spec.Bound:
		word = fmt.Sprintf("unresolved (spread %.1f%% wider than the bound)", 100*spread)
	case worse > spec.Bound:
		word = "REGRESSED"
	case worse < -spread && worse < 0:
		word = "improved"
	default:
		word = "within bound"
	}
	return worse, word
}

// runDiff prints one row per workload and end-to-end metric, and the
// per-layer values that changed beside them.
func runDiff(w io.Writer, specPath, oldPath, newPath string) error {
	var spec benchmarkSpec
	var old, cur resultFile
	for path, v := range map[string]any{specPath: &spec, oldPath: &old, newPath: &cur} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "old: commit %s seed %d   new: commit %s seed %d\n", old.Env.Commit, old.Env.Seed, cur.Env.Commit, cur.Env.Seed)
	olds := map[string]*report{}
	for _, r := range old.Workloads {
		olds[r.Name] = r
	}
	regressed := 0
	for _, n := range cur.Workloads {
		o := olds[n.Name]
		if o == nil {
			fmt.Fprintf(w, "%s: not in %s\n", n.Name, oldPath)
			continue
		}
		fmt.Fprintf(w, "%s  (failed %d/%d -> %d/%d)\n", n.Name, o.Failed, o.Attempted, n.Failed, n.Attempted)
		for _, m := range spec.EndToEnd {
			worse, word := verdict(m, o.EndToEnd[m.Name], n.EndToEnd[m.Name])
			if word == "REGRESSED" {
				regressed++
			}
			fmt.Fprintf(w, "  %-14s %12.6g -> %-12.6g %-6s %+7.2f%% worse (bound %.0f%%)  %s\n",
				m.Name, o.EndToEnd[m.Name].Value, n.EndToEnd[m.Name].Value, m.Unit, 100*worse, 100*m.Bound, word)
		}
		for _, m := range spec.PerLayer {
			ov, nv := o.PerLayer[m.Name].Value, n.PerLayer[m.Name].Value
			if ov == nv {
				continue
			}
			fmt.Fprintf(w, "    %-32s %12.6g -> %-12.6g %-6s", m.Name, ov, nv, m.Unit)
			if ov != 0 {
				fmt.Fprintf(w, " %+7.2f%%", 100*(nv-ov)/math.Abs(ov))
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "%d end-to-end metrics regressed\n", regressed)
	return nil
}
