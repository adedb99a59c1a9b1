package wavepipe

// Time-parallel (Parareal) window acceptance tests: windowed runs must stay
// within the LTE accuracy of the serial engine across the whole evaluation
// suite, must be deterministic, must degrade to the sequential window chain
// when the coarse seeds fail to contract, must honor cancellation without
// leaking coordinator or worker goroutines, and must emit a trace stream
// that replays 1:1 to the run's Stats counters.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"wavepipe/internal/circuits"
	"wavepipe/internal/transient"
)

// windowedRun executes one windowed transient and fails the test on error.
func windowedRun(t *testing.T, sys *System, opts TranOptions) *Result {
	t.Helper()
	res, err := RunTransientCtx(context.Background(), sys, opts)
	if err != nil {
		t.Fatalf("windowed run: %v", err)
	}
	return res
}

// TestWindowsMatchSerialSuite runs every evaluation circuit serially and
// with four Parareal windows under the default convergence gate: the
// windowed waveform must stay within 5% of the serial signal range — the
// bar the durability suite holds resumed runs to, and a window chain is a
// chain of resumes — and the window accounting must be coherent. The
// coordinator only cuts time where it can do so accurately (device
// breakpoints, or anywhere on smooth circuits), so the effective window
// count may be smaller than requested, down to a plain serial run.
func TestWindowsMatchSerialSuite(t *testing.T) {
	for _, b := range circuits.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			opts := TranOptions{TStop: b.TStop / 5, Record: []string{b.Probe}}
			ref, err := RunTransientCtx(context.Background(), sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			wopts := opts
			wopts.Windows = 4
			res := windowedRun(t, sys, wopts)
			dev, err := Compare(res.W, ref.W, b.Probe)
			if err != nil {
				t.Fatal(err)
			}
			if dev.RelMax() > 0.05 {
				t.Fatalf("windowed run deviates by %g of signal range", dev.RelMax())
			}
			W := res.Stats.WindowsLaunched
			if W < 0 || W > 4 {
				t.Fatalf("WindowsLaunched = %d, want 0..4", W)
			}
			if W > 0 && res.Stats.PararealIters < W {
				t.Fatalf("PararealIters = %d, want >= one fine solve per window (%d)",
					res.Stats.PararealIters, W)
			}
			if res.W.Times[len(res.W.Times)-1] != ref.W.Times[len(ref.W.Times)-1] {
				t.Fatalf("windowed run ends at %g, serial at %g",
					res.W.Times[len(res.W.Times)-1], ref.W.Times[len(ref.W.Times)-1])
			}
		})
	}
}

// TestWindowsStrictBitIdentical iterates to the strict gate: a strict
// windowed run refines every window from its exact predecessor state, and
// window boundaries sit on device breakpoints where the serial engine
// restarts its integrator anyway — so on breakpoint-structured circuits the
// sequential window chain must reproduce the serial run bit for bit, at any
// window count.
func TestWindowsStrictBitIdentical(t *testing.T) {
	for _, name := range []string{"rlctree8", "grid16", "ladder400", "inv50"} {
		name := name
		t.Run(name, func(t *testing.T) {
			b, ok := findSuite(name)
			if !ok {
				t.Fatalf("no %s benchmark", name)
			}
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := RunTransientCtx(context.Background(), sys, TranOptions{TStop: b.TStop / 5, Record: []string{b.Probe}})
			if err != nil {
				t.Fatal(err)
			}
			for _, W := range []int{2, 3, 4, 8} {
				opts := TranOptions{
					TStop: b.TStop / 5, Record: []string{b.Probe},
					Windows: W, CoarseOpts: CoarseOptions{Strict: true},
				}
				res := windowedRun(t, sys, opts)
				sameWaveform(t, fmt.Sprintf("strict W=%d", W), res, ref)
				if res.Stats.WindowRedos != 0 {
					t.Fatalf("W=%d: strict run recorded %d redos; strict windows never speculate",
						W, res.Stats.WindowRedos)
				}
			}
		})
	}
}

// TestWindowsGrid16GateRows runs grid16 at its full suite horizon on a
// two-core budget in W = 2, 4 and 8 windows, at the accuracy-first default
// gate and at gate 32, which accepts coarse seeds up to 32 fine error
// weights off. Every row must stay within 5% of the serial signal range,
// launch no more windows than asked and carry a critical-path reading; so
// must the serial reference. Outside -short each row, and serial, is also
// judged against truth: its truthDeviation from the fixed-step reference
// must stay within truthBar, or within the bar of its finding in
// truthFindings (gate 32 at W = 8, 6.4 % off truth and 4.5 % off serial).
func TestWindowsGrid16GateRows(t *testing.T) {
	b, ok := findSuite("grid16")
	if !ok {
		t.Fatal("no grid16 benchmark")
	}
	sys, err := b.Make().Build()
	if err != nil {
		t.Fatal(err)
	}
	base := TranOptions{TStop: b.TStop, Record: []string{b.Probe}, CoreBudget: 2}
	ref := windowedRun(t, sys, TranOptions{TStop: b.TStop, Record: []string{b.Probe}})
	if ref.Stats.CriticalNanos <= 0 {
		t.Fatalf("CriticalNanos = %d without windows", ref.Stats.CriticalNanos)
	}
	// judge holds a run to truth under key, the serial reference included.
	judge := func(key string, w *Set) {
		if testing.Short() {
			return
		}
		d := truthDeviation(t, suiteTruthCase(b), w)
		bar, finding := truthFindings[key]
		if !finding {
			bar = truthBar
		}
		if d > bar {
			t.Errorf("%s deviates %.2f%% from its reference, over its %.0f%% bar", key, 100*d, 100*bar)
		}
		t.Logf("%s: %.3f %% off truth", key, 100*d)
	}
	judge("serial/grid16", ref.W)
	for _, gate := range []float64{0, 32} {
		for _, W := range []int{2, 4, 8} {
			opts := base
			opts.Windows = W
			opts.CoarseOpts.Gate = gate
			res := windowedRun(t, sys, opts)
			dev, err := Compare(res.W, ref.W, b.Probe)
			if err != nil {
				t.Fatal(err)
			}
			if m := dev.RelMax(); m >= 0.05 {
				t.Errorf("gate %g, W=%d: deviates by %g of signal range, bar 0.05", gate, W, m)
			}
			judge(fmt.Sprintf("windows%d-gate%g/grid16", W, gate), res.W)
			if n := res.Stats.WindowsLaunched; n < 0 || n > int64(W) {
				t.Errorf("gate %g, W=%d: WindowsLaunched = %d", gate, W, n)
			}
			if res.Stats.CriticalNanos <= 0 {
				t.Errorf("gate %g, W=%d: CriticalNanos = %d", gate, W, res.Stats.CriticalNanos)
			}
		}
	}
}

// TestWindowsSerialFallback forces the Parareal iteration to fail its
// contraction gate (an absurdly tight gate under an extra-loose coarse
// propagator) and demands the documented degradation: redo counters rise,
// the run notes a serial fallback in its recovery log, and the waveform is
// still the serial answer — the fallback chain refines every window from
// its exact predecessor, trading speedup for correctness, never accuracy.
func TestWindowsSerialFallback(t *testing.T) {
	b, ok := findSuite("ladder400")
	if !ok {
		t.Fatal("no ladder400 benchmark")
	}
	sys, err := b.Make().Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := TranOptions{
		TStop: b.TStop / 5, Record: []string{b.Probe},
		Windows:    6,
		CoarseOpts: CoarseOptions{Gate: 1e-9},
	}
	res := windowedRun(t, sys, opts)
	if res.Stats.WindowRedos == 0 {
		t.Fatalf("gate 1e-9 accepted every coarse seed: %+v", res.Stats)
	}
	if res.Recovery.Count(transient.RecoverySerialFallback) == 0 {
		t.Fatalf("no serial-fallback recovery noted: %+v", res.Recovery.Events())
	}
	ref, err := RunTransientCtx(context.Background(), sys, TranOptions{TStop: b.TStop / 5, Record: []string{b.Probe}})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := Compare(res.W, ref.W, b.Probe)
	if err != nil {
		t.Fatal(err)
	}
	if dev.RelMax() > 0.02 {
		t.Fatalf("fallback run deviates by %g of signal range", dev.RelMax())
	}
}

// TestWindowsCancellation cancels a windowed run mid-flight and demands a
// prompt ErrCanceled with every coordinator, coarse and fine goroutine gone
// — the seed and convergence channels are published exactly once on every
// exit path, so cancellation must never strand a window worker.
func TestWindowsCancellation(t *testing.T) {
	b, ok := findSuite("grid16")
	if !ok {
		t.Fatal("no grid16 benchmark")
	}
	sys, err := b.Make().Build()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	opts := TranOptions{TStop: b.TStop, Record: []string{b.Probe}, Windows: 4}
	if _, err := RunTransientCtx(ctx, sys, opts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled windowed run: %v, want ErrCanceled", err)
	}
	waitGoroutineBaseline(t, before)
}

// TestWindowsTraceReconciles records a windowed run's event stream and
// replays it: the replay must reconstruct the run's Stats exactly — points
// and solves across the coarse sweep, speculation, and redos (discarded
// speculative work stays in both), and the window lifecycle counters
// (seeds = launches, redos = redos, one convergence per window).
func TestWindowsTraceReconciles(t *testing.T) {
	b, ok := findSuite("rlctree8")
	if !ok {
		t.Fatal("no rlctree8 benchmark")
	}
	sys, err := b.Make().Build()
	if err != nil {
		t.Fatal(err)
	}
	rec := NewTraceRecorder(0)
	res := windowedRun(t, sys, TranOptions{
		TStop: b.TStop / 5, Record: []string{b.Probe},
		Windows: 4, Observer: rec,
	})
	rc := ReplayTrace(rec.Events())
	if rc.Points != res.Stats.Points || rc.Solves != res.Stats.Solves {
		t.Fatalf("replay points/solves %d/%d, stats %d/%d",
			rc.Points, rc.Solves, res.Stats.Points, res.Stats.Solves)
	}
	if res.Stats.WindowsLaunched < 2 {
		t.Fatalf("WindowsLaunched = %d, want a real window split", res.Stats.WindowsLaunched)
	}
	if int64(rc.WindowSeeds) != res.Stats.WindowsLaunched {
		t.Fatalf("replay seeds %d, stats launches %d", rc.WindowSeeds, res.Stats.WindowsLaunched)
	}
	if int64(rc.WindowRedos) != res.Stats.WindowRedos {
		t.Fatalf("replay redos %d, stats redos %d", rc.WindowRedos, res.Stats.WindowRedos)
	}
	if int64(rc.WindowConverges) != res.Stats.WindowsLaunched {
		t.Fatalf("replay converges %d, want one per window (%d)", rc.WindowConverges, res.Stats.WindowsLaunched)
	}
}

// TestWindowsOptionValidation rejects the option combinations the windowed
// engine cannot honor, before any goroutine is launched.
func TestWindowsOptionValidation(t *testing.T) {
	b, ok := findSuite("rlctree8")
	if !ok {
		t.Fatal("no rlctree8 benchmark")
	}
	sys, err := b.Make().Build()
	if err != nil {
		t.Fatal(err)
	}
	base := TranOptions{TStop: b.TStop / 10, Record: []string{b.Probe}}
	bad := []func(*TranOptions){
		func(o *TranOptions) { o.Windows = -1 },
		func(o *TranOptions) { o.Windows = 4096 },
		func(o *TranOptions) { o.Windows = 2; o.CoarseOpts.Gate = -1 },
		func(o *TranOptions) { o.Windows = 2; o.CheckpointPath = "x.ckpt" },
	}
	for i, mutate := range bad {
		opts := base
		mutate(&opts)
		if _, err := RunTransientCtx(context.Background(), sys, opts); err == nil {
			t.Fatalf("case %d: invalid windowed options accepted", i)
		}
	}
}

// TestWindowsContextDeadline: a windowed run honours its context's deadline
// like any other run: it stops with ErrDeadlineExceeded, not ErrCanceled.
func TestWindowsContextDeadline(t *testing.T) {
	sys, err := circuits.PowerGridMesh(24, 1.8).Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = RunTransientCtx(ctx, sys, TranOptions{TStop: 800e-9, Record: []string{"n12_12"}, Windows: 2})
	if !errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
}

// findSuite returns the named evaluation benchmark.
func findSuite(name string) (circuits.Benchmark, bool) {
	for _, b := range circuits.Suite() {
		if b.Name == name {
			return b, true
		}
	}
	return circuits.Benchmark{}, false
}
