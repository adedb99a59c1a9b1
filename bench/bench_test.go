package main

import (
	"context"
	"math"
	"regexp"
	"runtime"
	"testing"
)

// TestSmoke runs every workload of BENCHMARK.json at one tiny traced pass
// and holds the emitted metrics to the file: each named workload runs, and
// each named metric comes out exactly once with its unit and a finite
// value. It keeps the benchmark building and running under plain
// `go test ./...`. Failed runs are logged, not asserted: a quarter horizon
// ends some digital circuits mid-edge, where the deviation from the
// reference is meaningless.
func TestSmoke(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %v", m.Name, nameRE)
		}
		if seen[m.Name] {
			t.Errorf("metric %q is named twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}

	rc := runConfig{seed: 1, seconds: defaultSeconds, trace: true, tiny: true, nproc: runtime.NumCPU(), dir: t.TempDir()}
	for _, wl := range spec.Workloads {
		if !nameRE.MatchString(wl.Name) {
			t.Errorf("workload name %q does not match %v", wl.Name, nameRE)
		}
		rep, err := runWorkload(context.Background(), wl.Name, rc)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		t.Logf("%s: %d of %d runs failed %v", wl.Name, rep.Failed, rep.Attempted, rep.Problems)
		if rep.Attempted < 1 {
			t.Errorf("%s: no run attempted", wl.Name)
		}
		check := func(kind string, specs []metricSpec, got map[string]measured) {
			if len(got) != len(specs) {
				t.Errorf("%s: %d %s metrics emitted, BENCHMARK.json names %d", wl.Name, len(got), kind, len(specs))
			}
			for _, m := range specs {
				v, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s metric %s is not emitted", wl.Name, kind, m.Name)
				case v.Unit != m.Unit || v.Unit == "":
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.Name, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s is %v", wl.Name, m.Name, v.Value)
				}
			}
		}
		check("end-to-end", spec.EndToEnd, rep.EndToEnd)
		check("per-layer", spec.PerLayer, rep.PerLayer)
		for _, m := range spec.EndToEnd {
			if rep.EndToEnd[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, want above 0", wl.Name, m.Name, rep.EndToEnd[m.Name].Value)
			}
		}
	}
}
