package wavepipe

// Core-budget acceptance tests. A budget caps the cores a run's coordinators
// (pipeline stage gang, concurrent windows) may occupy; a
// time point is solved by one goroutine whatever it says. So no budget may
// change a waveform, a pipelined run must be bit-identical whether its stage
// gang really runs concurrently or degrades to the sequential sweep, the
// budget must be surfaced in Stats, and no gang goroutine may outlive its run.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"wavepipe/internal/circuits"
	"wavepipe/internal/device"
	"wavepipe/internal/sched"
)

// budgetRun executes one run with the given core budget under the given
// GOMAXPROCS, restoring the previous setting before returning.
func budgetRun(t *testing.T, sys *System, opts TranOptions, budget, procs int) *Result {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	opts.CoreBudget = budget
	res, err := RunTransientCtx(context.Background(), sys, opts)
	if err != nil {
		t.Fatalf("budget=%d procs=%d: %v", budget, procs, err)
	}
	return res
}

// forcedRun executes one run with the gangs forced on at GOMAXPROCS=1: the
// stage gang's goroutines really run, taking turns on one CPU, whatever the
// host (see sched.ForceGang).
func forcedRun(t *testing.T, sys *System, opts TranOptions, budget int) *Result {
	t.Helper()
	sched.ForceGang.Store(true)
	defer sched.ForceGang.Store(false)
	return budgetRun(t, sys, opts, budget, 1)
}

// sameWaveform demands bitwise equality of two result waveforms.
func sameWaveform(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if len(got.W.Times) != len(want.W.Times) {
		t.Fatalf("%s: point counts differ: %d vs %d", tag, len(got.W.Times), len(want.W.Times))
	}
	for k := range want.W.Times {
		if got.W.Times[k] != want.W.Times[k] {
			t.Fatalf("%s: time %d differs: %g vs %g", tag, k, got.W.Times[k], want.W.Times[k])
		}
		for j := range want.W.Data[k] {
			if got.W.Data[k][j] != want.W.Data[k][j] {
				t.Fatalf("%s: sample (%d,%d) differs: %g vs %g",
					tag, k, j, got.W.Data[k][j], want.W.Data[k][j])
			}
		}
	}
}

// TestCoreBudgetNeverChangesAWaveform holds CoreBudget to its contract on
// every evaluation circuit, all node voltages recorded: a Serial run at
// budgets 1, 2, 4 and 8 is the run without a budget bit for bit, and on
// grid16 and nand5 — a linear mesh and a nonlinear circuit, both large enough
// that a wider budget once bought a point solve a gang of its own — the
// pinned rows of the two schemes reproduce their hashes at budgets 2, 4
// and 8. An ensemble's gang is capped by the budget too: six
// ladder lanes at budgets 1, 2 and 4 are the lanes without a budget bit for
// bit, on a gang no wider than the budget.
func TestCoreBudgetNeverChangesAWaveform(t *testing.T) {
	pinned := []struct {
		name string
		opts TranOptions
	}{
		{"backward2", TranOptions{Scheme: Backward}},
		{"forward2", TranOptions{Scheme: Forward}},
	}
	for _, b := range circuits.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			opts := TranOptions{TStop: b.TStop}
			if testing.Short() {
				opts.TStop /= 5
			}
			ref, err := RunTransientCtx(context.Background(), sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Stats.CoreBudget != 0 || ref.Stats.IntraWorkers != 0 {
				t.Fatalf("no budget, but Stats reports CoreBudget=%d IntraWorkers=%d", ref.Stats.CoreBudget, ref.Stats.IntraWorkers)
			}
			for _, budget := range []int{1, 2, 4, 8} {
				res := budgetRun(t, sys, opts, budget, runtime.GOMAXPROCS(0))
				tag := fmt.Sprintf("serial, budget %d vs none", budget)
				sameWaveform(t, tag, res, ref)
				if got, want := waveformHash(res), waveformHash(ref); got != want {
					t.Fatalf("%s: final solution differs (hash %#x vs %#x)", tag, got, want)
				}
				if res.Stats.CoreBudget != budget || res.Stats.PipelineWorkers != 1 || res.Stats.IntraWorkers != 1 {
					t.Fatalf("%s: Stats reports CoreBudget=%d PipelineWorkers=%d IntraWorkers=%d, want %d/1/1",
						tag, res.Stats.CoreBudget, res.Stats.PipelineWorkers, res.Stats.IntraWorkers, budget)
				}
			}
			if b.Name != "grid16" && b.Name != "nand5" {
				return
			}
			for _, cfg := range pinned {
				cfg := cfg
				t.Run(cfg.name, func(t *testing.T) {
					skipUnpinnable(t)
					for _, budget := range []int{2, 4, 8} {
						o := cfg.opts
						o.TStop = b.TStop
						res := budgetRun(t, sys, o, budget, runtime.GOMAXPROCS(0))
						checkPinned(t, engineWaveformHashes, cfg.name+"/"+b.Name, res)
						if res.Stats.IntraWorkers != 1 {
							t.Fatalf("budget %d: IntraWorkers = %d, want 1", budget, res.Stats.IntraWorkers)
						}
					}
				})
			}
		})
	}
	t.Run("ensemble", func(t *testing.T) {
		sched.ForceGang.Store(true) // the gang on real goroutines whatever the host
		defer sched.ForceGang.Store(false)
		run := func(budget int) *EnsembleResult {
			lanes := make([]*Circuit, 6)
			for i := range lanes {
				lanes[i] = circuits.RCLadder(40)
				for _, d := range lanes[i].Devices() {
					if r, ok := d.(*device.Resistor); ok {
						r.SetValue(r.Value() * (1 + 0.1*float64(i)))
					}
				}
			}
			res, err := RunEnsembleCircuitsCtx(context.Background(), lanes,
				TranOptions{TStop: 20e-9, Threads: 6, CoreBudget: budget})
			if err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
			return res
		}
		ref := run(0)
		if ref.Stats.PipelineWorkers != 6 {
			t.Fatalf("no budget: gang of %d, want Threads = 6", ref.Stats.PipelineWorkers)
		}
		for _, budget := range []int{1, 2, 4} {
			res := run(budget)
			if res.Stats.PipelineWorkers > budget || res.Stats.CoreBudget != budget {
				t.Fatalf("budget %d: Stats reports CoreBudget=%d and a gang of %d",
					budget, res.Stats.CoreBudget, res.Stats.PipelineWorkers)
			}
			for i, lr := range res.Lanes {
				if lr.Err != nil {
					t.Fatalf("budget %d lane %d: %v", budget, i, lr.Err)
				}
				sameWaveform(t, fmt.Sprintf("lane %d, budget %d vs none", i, budget), lr.Res, ref.Lanes[i].Res)
			}
		}
	})
}

// TestCoreBudgetBackwardBitIdentical: a pipelined run is bit-identical
// whether its stage gang is forced through real goroutines or serialized by
// CoreBudget=1, and it reports what it ran as.
func TestCoreBudgetBackwardBitIdentical(t *testing.T) {
	sys, opts := suiteSystem(t, "grid16")
	opts.TStop /= 5
	opts.Scheme = Backward
	par := forcedRun(t, sys, opts, 2)
	deg := budgetRun(t, sys, opts, 1, runtime.GOMAXPROCS(0))
	sameWaveform(t, "backward gang vs budget 1", par, deg)
	if par.Stats.CoreBudget != 2 || par.Stats.PipelineWorkers != 2 || par.Stats.IntraWorkers != 1 {
		t.Fatalf("budget not surfaced: %+v", par.Stats)
	}
	if !deg.Stats.PipelineSerialized {
		t.Fatal("budget-1 run did not report pipeline serialization")
	}

	// With enough GOMAXPROCS and budget the pipeline must NOT report
	// serialization (parked gang members don't spin, so GOMAXPROCS above the
	// hardware thread count is harmless here).
	wide := budgetRun(t, lowpass(t), TranOptions{TStop: 3e-3, Scheme: Backward}, 2, 2)
	if wide.Stats.PipelineSerialized {
		t.Fatal("2-proc budget-2 run reported pipeline serialization")
	}
}

// TestCoreBudgetMatchesReference compares a budgeted pipelined run — stage
// gang on real goroutines, a budget as wide as the pipeline — against the
// serial engine. The pipeline takes other steps than the serial loop, so the
// check is the bar the suite holds pipelined runs to elsewhere (5 % of the
// probe's range; grid16 reads 3.5 % with or without a budget), not
// bit-identity.
func TestCoreBudgetMatchesReference(t *testing.T) {
	for _, name := range []string{"grid16", "ring9"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sys, opts := suiteSystem(t, name)
			ref, err := RunTransientCtx(context.Background(), sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			wp := opts
			wp.Scheme = Forward
			res := budgetRun(t, sys, wp, 2, 2)
			dev, err := Compare(res.W, ref.W, opts.Record[0])
			if err != nil {
				t.Fatal(err)
			}
			if dev.RelMax() > 0.05 {
				t.Fatalf("budgeted run deviates by %g of signal range", dev.RelMax())
			}
		})
	}
}

// TestCoreBudgetNoGoroutineLeak: the stage gangs of budgeted runs are closed
// with their runs; repeated runs must not accumulate goroutines.
func TestCoreBudgetNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	sys, opts := suiteSystem(t, "grid16")
	opts.TStop /= 10
	for i := 0; i < 3; i++ {
		wp := opts
		wp.Scheme = Backward
		forcedRun(t, sys, wp, 2)
		wp.Scheme = Forward
		forcedRun(t, sys, wp, 2)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutine leak: %d before, %d after budgeted runs", before, now)
	}
}

func suiteSystem(t *testing.T, name string) (*System, TranOptions) {
	t.Helper()
	for _, bb := range circuits.Suite() {
		if bb.Name != name {
			continue
		}
		sys, err := bb.Make().Build()
		if err != nil {
			t.Fatal(err)
		}
		return sys, TranOptions{TStop: bb.TStop, Record: []string{bb.Probe}}
	}
	t.Fatalf("no suite circuit %q", name)
	return nil, TranOptions{}
}
