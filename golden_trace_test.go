package wavepipe_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"wavepipe"
	"wavepipe/internal/circuits"
)

var updateTraceGolden = flag.Bool("update-trace-golden", false,
	"regenerate testdata/trace_golden.jsonl and its stats sidecar from a fresh run")

const (
	goldenTracePath = "testdata/trace_golden.jsonl"
	goldenStatsPath = "testdata/trace_golden_stats.json"
)

// goldenStats is the sidecar: the Stats counters of the run that produced
// the golden trace, as the replay must reconstruct them.
type goldenStats struct {
	Points     int `json:"points"`
	Solves     int `json:"solves"`
	NRIters    int `json:"nr_iters"`
	LTERejects int `json:"lte_rejects"`
	Discarded  int `json:"discarded"`
	Recoveries int `json:"recoveries"`
	Reused     int `json:"reused_factorizations"`
}

// TestGoldenTraceReplays pins the JSONL wire format: a trace recorded by an
// earlier build must still parse and replay to the Stats counters of the run
// that produced it. A wire-format change that breaks old logs fails here
// (regenerate deliberately with -update-trace-golden).
func TestGoldenTraceReplays(t *testing.T) {
	if *updateTraceGolden {
		regenerateGoldenTrace(t)
	}
	f, err := os.Open(goldenTracePath)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGoldenTraceReplays -update-trace-golden .` to create it)", err)
	}
	defer f.Close()
	events, snaps, err := wavepipe.ReadTraceJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || len(snaps) == 0 {
		t.Fatalf("golden trace degenerate: %d events, %d snapshots", len(events), len(snaps))
	}

	raw, err := os.ReadFile(goldenStatsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenStats
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	rc := wavepipe.ReplayTrace(events)
	got := goldenStats{
		Points: rc.Points, Solves: rc.Solves, NRIters: rc.NRIters,
		LTERejects: rc.LTERejects, Discarded: rc.Discarded, Recoveries: rc.Recoveries,
		Reused: rc.ReuseHits,
	}
	if got != want {
		t.Fatalf("golden trace replay mismatch:\n got %+v\nwant %+v", got, want)
	}

	// The final snapshot's cumulative counters must agree with the replay up
	// to snapshot cadence (snapshots sample on accepts, so they can only lag).
	last := snaps[len(snaps)-1]
	if last.Points > int64(rc.Points) || last.Solves > int64(rc.Solves) {
		t.Fatalf("final snapshot ahead of the event stream: %+v vs %+v", last, rc)
	}
}

func regenerateGoldenTrace(t *testing.T) {
	t.Helper()
	var bench *circuits.Benchmark
	for _, b := range circuits.Suite() {
		if b.Name == "rlctree8" {
			bb := b
			bench = &bb
		}
	}
	if bench == nil {
		t.Fatal("no rlctree8 benchmark")
	}
	sys, err := bench.Make().Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := wavepipe.NewTraceRecorder(0)
	// A short window keeps the checked-in file small while still exercising
	// every record type (solve phases, accepts, rejects, and at least one
	// snapshot at the fixed cadence of 128 accepts).
	res, err := wavepipe.RunTransientCtx(context.Background(), sys, wavepipe.TranOptions{
		TStop: bench.TStop / 10, Record: []string{bench.Probe}, Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenTracePath), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(goldenTracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := wavepipe.WriteTraceJSONL(f, rec.Events(), rec.Snapshots()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := json.MarshalIndent(goldenStats{
		Points: res.Stats.Points, Solves: res.Stats.Solves, NRIters: res.Stats.NRIters,
		LTERejects: res.Stats.LTERejects, Discarded: res.Stats.Discarded,
		Recoveries: res.Stats.Recoveries, Reused: res.Stats.ReusedFactorizations,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenStatsPath, append(stats, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %s (%d events, %d snapshots)", goldenTracePath, rec.Len(), len(rec.Snapshots()))
}
