package wavepipe

// Two-level scheduler acceptance tests: the core-budget runs must be
// bit-identical whether the gangs actually run concurrently (enough
// GOMAXPROCS) or degrade to the in-place sequential sweep (the determinism
// contract that makes CoreBudget safe to enable anywhere), must stay within
// LTE accuracy of the unmanaged engine, must split the budget as documented,
// and must not leak gang goroutines.

import (
	"runtime"
	"testing"
	"time"

	"wavepipe/internal/circuits"
	"wavepipe/internal/sched"
)

// budgetRun executes one run with the given core budget under the given
// GOMAXPROCS, restoring the previous setting before returning.
func budgetRun(t *testing.T, sys *System, opts TranOptions, budget, procs int) *Result {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	opts.CoreBudget = budget
	res, err := RunTransient(sys, opts)
	if err != nil {
		t.Fatalf("budget=%d procs=%d: %v", budget, procs, err)
	}
	return res
}

// forcedRun executes one run with the gang kernels forced on at GOMAXPROCS=1:
// the concurrent code paths run bit-for-bit, round-robined cooperatively on
// one CPU. Raising GOMAXPROCS past the hardware thread count instead would
// push every barrier crossing into OS time-slicing and make the big suite
// circuits take minutes each (see sched.ForceGang).
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

// TestCoreBudgetBitIdenticalSuite runs every evaluation circuit twice with
// the same core budget: once with the gang kernels forced through their
// concurrent code paths, once with every kernel degraded to its sequential
// sweep. The waveforms must match bit for bit — the parallel level-scheduled
// LU and the pooled colored load are exact reimplementations, not
// approximations.
func TestCoreBudgetBitIdenticalSuite(t *testing.T) {
	for _, b := range circuits.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			opts := TranOptions{TStop: b.TStop / 5, Record: []string{b.Probe}}
			par := forcedRun(t, sys, opts, 4)
			deg := budgetRun(t, sys, opts, 4, 1)
			sameWaveform(t, "gang vs degraded", par, deg)
			if par.Stats.CoreBudget != 4 {
				t.Fatalf("Stats.CoreBudget = %d, want 4", par.Stats.CoreBudget)
			}
		})
	}
}

// TestCoreBudgetCombinedBitIdentical covers the same determinism contract
// through the combined WavePipe scheme, where the budget is split between
// pipeline workers and per-solver gangs.
func TestCoreBudgetCombinedBitIdentical(t *testing.T) {
	b, sysOpts := func() (circuits.Benchmark, TranOptions) {
		for _, bb := range circuits.Suite() {
			if bb.Name == "grid16" {
				return bb, TranOptions{TStop: bb.TStop / 5, Record: []string{bb.Probe}}
			}
		}
		t.Fatal("no grid16 in suite")
		return circuits.Benchmark{}, TranOptions{}
	}()
	sys, err := b.Make().Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := sysOpts
	opts.Scheme = Combined
	opts.Threads = 4
	par := forcedRun(t, sys, opts, 8)
	deg := budgetRun(t, sys, opts, 8, 1)
	sameWaveform(t, "combined gang vs degraded", par, deg)
	if par.Stats.CoreBudget != 8 || par.Stats.PipelineWorkers != 4 {
		t.Fatalf("budget split not surfaced: %+v", par.Stats)
	}
	if par.Stats.IntraWorkers != 2 {
		t.Fatalf("IntraWorkers = %d, want 2 (budget 8 / 4 pipeline workers)", par.Stats.IntraWorkers)
	}
	if !deg.Stats.PipelineSerialized {
		t.Fatal("1-core run did not report pipeline serialization")
	}

	// The per-phase serialization check (satellite of the old Engine.seq
	// bug): with enough GOMAXPROCS and budget the pipeline must NOT report
	// serialization. Use a circuit below the intra-point profitability
	// threshold so no gangs attach — pipeline workers alone don't spin, so
	// GOMAXPROCS above the hardware thread count is harmless here.
	small := lowpass(t)
	wide := budgetRun(t, small, TranOptions{TStop: 3e-3, Scheme: Combined, Threads: 4}, 4, 4)
	if wide.Stats.PipelineSerialized {
		t.Fatal("4-proc budget-4 run reported pipeline serialization")
	}
	narrow := budgetRun(t, small, TranOptions{TStop: 3e-3, Scheme: Combined, Threads: 4}, 2, 4)
	if !narrow.Stats.PipelineSerialized {
		t.Fatal("budget 2 under 4 pipeline workers must serialize the pipeline")
	}
}

// TestCoreBudgetMatchesReference compares a budgeted run against the
// unmanaged engine. The colored load reassociates row sums, so the check is
// the engine's LTE-scale tolerance, not bit-identity.
func TestCoreBudgetMatchesReference(t *testing.T) {
	for _, name := range []string{"grid16", "ring9"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sys, opts := suiteSystem(t, name)
			ref, err := RunTransient(sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			res := budgetRun(t, sys, opts, 4, 4)
			dev, err := Compare(res.W, ref.W, opts.Record[0])
			if err != nil {
				t.Fatal(err)
			}
			if dev.RelMax() > 0.02 {
				t.Fatalf("budgeted run deviates by %g of signal range", dev.RelMax())
			}
		})
	}
}

// TestCoreBudgetProfitabilityGate: a circuit below the intra-point
// profitability threshold must keep its whole budget unused (IntraWorkers
// stays 1) while a mesh-sized circuit splits it.
func TestCoreBudgetProfitabilityGate(t *testing.T) {
	small := budgetRun(t, lowpass(t), TranOptions{TStop: 3e-3}, 8, 4)
	if small.Stats.IntraWorkers != 1 {
		t.Fatalf("small circuit got an intra gang: IntraWorkers = %d", small.Stats.IntraWorkers)
	}
	sys, opts := suiteSystem(t, "grid16")
	opts.TStop /= 5
	big := forcedRun(t, sys, opts, 8)
	if big.Stats.IntraWorkers != 8 {
		t.Fatalf("serial engine should give the whole budget to the gang: IntraWorkers = %d", big.Stats.IntraWorkers)
	}
}

// TestCoreBudgetNoGoroutineLeak: the gangs attached by budgeted runs are
// closed with their runs; repeated runs must not accumulate goroutines.
func TestCoreBudgetNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	sys, opts := suiteSystem(t, "grid16")
	opts.TStop /= 10
	for i := 0; i < 3; i++ {
		forcedRun(t, sys, opts, 4)
		wp := opts
		wp.Scheme = Combined
		wp.Threads = 4
		forcedRun(t, sys, wp, 8)
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
