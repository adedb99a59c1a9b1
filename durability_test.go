package wavepipe

// Durability suite: kill-and-resume bit-identity through the public facade,
// deadline and stall-watchdog aborts with typed errors and salvaged partial
// results, and panic containment. These are the acceptance tests for the
// checkpoint/resume layer — run them with -race; the watchdog and the
// engines share only the controller's atomics and the abort flag.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wavepipe/internal/circuits"
)

// acceptHook is an Observer that calls fn(n) after the n-th accepted point.
type acceptHook struct {
	n  atomic.Int64
	fn func(n int64)
}

func (h *acceptHook) OnEvent(ev TraceEvent) {
	if ev.Kind == TraceKindAccept {
		h.fn(h.n.Add(1))
	}
}
func (h *acceptHook) OnSnapshot(TraceSnapshot) {}

// durabilityCircuits is the kill-and-resume subset of the evaluation suite:
// a stiff analog mesh, a long linear line, a rectifier with breakpoints and
// diodes, and a regenerative digital ring.
func durabilityCircuits() []circuits.Benchmark {
	want := map[string]bool{"grid16": true, "ladder400": true, "rect1k": true, "ring9": true}
	var out []circuits.Benchmark
	for _, b := range circuits.Suite() {
		if want[b.Name] {
			out = append(out, b)
		}
	}
	return out
}

// TestKillAndResumeSerialBitIdentical is the tentpole acceptance test: a
// serial run killed mid-flight (context cancel at an accepted point) and
// resumed from its final checkpoint must reproduce the uninterrupted run's
// waveform bit for bit — times, samples and final solution all exact.
func TestKillAndResumeSerialBitIdentical(t *testing.T) {
	for _, b := range durabilityCircuits() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			base := TranOptions{TStop: b.TStop / 5, Record: []string{b.Probe}}
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := RunTransient(sys, base)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Stats.Points < 20 {
				t.Fatalf("reference too short to interrupt (%d points)", ref.Stats.Points)
			}

			// Kill: cancel the context at the midpoint accept. The final
			// checkpoint is flushed by the engine's deferred save.
			path := filepath.Join(t.TempDir(), "run.wpcp")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			half := int64(ref.Stats.Points / 2)
			hook := &acceptHook{fn: func(n int64) {
				if n == half {
					cancel()
				}
			}}
			killOpts := base
			killOpts.CheckpointPath = path
			killOpts.CheckpointEvery = 16
			killOpts.Observer = hook
			sysA, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			partial, err := RunTransientCtx(ctx, sysA, killOpts)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("killed run: %v, want ErrCanceled", err)
			}
			if partial == nil || partial.W.Len() == 0 {
				t.Fatal("killed run returned no partial result")
			}

			// Resume from the checkpoint and finish.
			sysB, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			resOpts := base
			resOpts.ResumeFrom = path
			res, err := RunTransient(sysB, resOpts)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			sameWaveform(t, "resumed vs uninterrupted", res, ref)
			for i := range ref.FinalX {
				if res.FinalX[i] != ref.FinalX[i] {
					t.Fatalf("FinalX[%d] = %g, want %g", i, res.FinalX[i], ref.FinalX[i])
				}
			}
			if res.Stats.Points != ref.Stats.Points {
				t.Fatalf("cumulative points %d, want %d", res.Stats.Points, ref.Stats.Points)
			}
		})
	}
}

// TestKillAndResumePipelined covers the pipelined engine: a Combined-scheme
// run killed and resumed must still track the serial reference within the
// equivalence tolerances (pipelining is tolerance-equivalent, not
// bit-identical, so that is the contract after resume too).
func TestKillAndResumePipelined(t *testing.T) {
	b := durabilityCircuits()[0] // grid16
	base := TranOptions{TStop: b.TStop / 5, Record: []string{b.Probe}}
	sys, err := b.Make().Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunTransient(sys, base)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.wpcp")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := &acceptHook{fn: func(n int64) {
		if n == 40 {
			cancel()
		}
	}}
	killOpts := base
	killOpts.Scheme = Combined
	killOpts.Threads = 3
	killOpts.CheckpointPath = path
	killOpts.CheckpointEvery = 16
	killOpts.Observer = hook
	sysA, _ := b.Make().Build()
	if _, err := RunTransientCtx(ctx, sysA, killOpts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("killed pipelined run: %v, want ErrCanceled", err)
	}

	sysB, _ := b.Make().Build()
	resOpts := base
	resOpts.Scheme = Combined
	resOpts.Threads = 3
	resOpts.ResumeFrom = path
	res, err := RunTransient(sysB, resOpts)
	if err != nil {
		t.Fatalf("resumed pipelined run: %v", err)
	}
	end := res.W.Times[res.W.Len()-1]
	if end < base.TStop*(1-1e-9) {
		t.Fatalf("resumed run stopped at t=%g, want %g", end, base.TStop)
	}
	dev, err := Compare(res.W, ref.W, b.Probe)
	if err != nil {
		t.Fatal(err)
	}
	if dev.RelMax() > 0.05 {
		t.Fatalf("resumed pipelined deviation %g exceeds 5%% of signal range", dev.RelMax())
	}
}

// TestDeadlineAbort verifies the wall-clock contract: a run with a deadline
// far shorter than its runtime aborts with ErrDeadlineExceeded, returns the
// partial result, flushes a final checkpoint, and leaks no goroutines.
func TestDeadlineAbort(t *testing.T) {
	before := runtime.NumGoroutine()
	sys, err := circuits.PowerGridMesh(24, 1.8).Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "deadline.wpcp")
	// Ten times the suite horizon: at the suite's own 80 ns the mesh now
	// finishes in about the deadline (PRs 13, 19 and 20 each made it faster),
	// and a run that finishes has nothing to abort.
	res, err := RunTransient(sys, TranOptions{
		TStop: 800e-9, Record: []string{"n12_12"},
		Deadline:       30 * time.Millisecond,
		CheckpointPath: path,
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("err %v is not a SimError", err)
	}
	if res == nil || res.W.Len() == 0 {
		t.Fatal("no partial result")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no final checkpoint: %v", err)
	}
	waitGoroutineBaseline(t, before)
}

// TestStallWatchdogAbort wedges the run by blocking inside a synchronous
// observer callback for longer than the stall floor; the watchdog must trip
// ErrStalled and the engine must surface it at the next boundary.
func TestStallWatchdogAbort(t *testing.T) {
	if testing.Short() {
		t.Skip("blocks >1s to exceed the stall floor")
	}
	before := runtime.NumGoroutine()
	sys, err := circuits.PowerGridMesh(16, 1.8).Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stall.wpcp")
	hook := &acceptHook{fn: func(n int64) {
		if n == 10 {
			// Simulated hang: no accepted step while this callback blocks.
			time.Sleep(1500 * time.Millisecond)
		}
	}}
	res, err := RunTransient(sys, TranOptions{
		TStop: 80e-9, Record: []string{"n8_8"},
		StallFactor:    2,
		CheckpointPath: path,
		Observer:       hook,
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if res == nil || res.W.Len() == 0 {
		t.Fatal("no partial result")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no final checkpoint: %v", err)
	}
	waitGoroutineBaseline(t, before)
}

// TestPanicContainmentSalvage crashes the engine mid-run (a panicking
// observer callback on the serial hot path) and requires the facade to
// contain it: a typed ErrWorkerPanic error, a Result salvaged from the last
// retained snapshot, and a checkpoint file on disk.
func TestPanicContainmentSalvage(t *testing.T) {
	sys, err := circuits.RCLadder(400).Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "panic.wpcp")
	hook := &acceptHook{fn: func(n int64) {
		if n == 40 {
			panic("injected observer panic")
		}
	}}
	res, err := RunTransient(sys, TranOptions{
		TStop: 100e-9, Record: []string{"out"},
		CheckpointPath:  path,
		CheckpointEvery: 8,
		Observer:        hook,
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic", err)
	}
	if res == nil || res.W.Len() == 0 {
		t.Fatal("panic containment salvaged no result")
	}
	if res.FinalX == nil {
		t.Fatal("salvaged result has no final solution")
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() == 0 {
		t.Fatalf("no checkpoint after panic: %v", err)
	}
	// The salvaged waveform must be resumable: the crash lost at most the
	// work after the last flushed snapshot.
	sysB, _ := circuits.RCLadder(400).Build()
	if _, err := RunTransient(sysB, TranOptions{
		TStop: 100e-9, Record: []string{"out"}, ResumeFrom: path,
	}); err != nil {
		t.Fatalf("resume after panic: %v", err)
	}
}

// TestResumeFromGarbageFails covers the CLI-facing failure path: resuming
// from a corrupted file must fail with the typed checkpoint error, not
// panic or silently start over.
func TestResumeFromGarbageFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.wpcp")
	if err := os.WriteFile(path, []byte("WPCPnot really a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := circuits.RCLadder(400).Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunTransient(sys, TranOptions{TStop: 100e-9, ResumeFrom: path})
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("err = %v, want ErrBadCheckpoint", err)
	}
}

// TestDurabilityOptionValidation pins the API-boundary rules.
func TestDurabilityOptionValidation(t *testing.T) {
	sys, err := circuits.RCLadder(400).Build()
	if err != nil {
		t.Fatal(err)
	}
	bad := []TranOptions{
		{TStop: 1e-9, Deadline: -time.Second},
		{TStop: 1e-9, CheckpointEvery: -1},
		{TStop: 1e-9, CheckpointEvery: 10}, // cadence without a path
		{TStop: 1e-9, StallFactor: -1},
	}
	for i, opts := range bad {
		if _, err := RunTransient(sys, opts); err == nil {
			t.Fatalf("case %d: invalid options accepted", i)
		}
	}
}

// waitGoroutineBaseline polls until the goroutine count drops back to the
// pre-test baseline, failing after two seconds — the watchdog must not
// outlive its run.
func waitGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkCheckpointOverheadGrid16 measures the acceptance bound for
// periodic checkpointing at default cadence on the grid16 serial benchmark:
// compare the guarded and unguarded sub-benchmarks — the delta is the
// checkpoint overhead and must stay under 2%.
func BenchmarkCheckpointOverheadGrid16(b *testing.B) {
	sys, err := circuits.PowerGridMesh(16, 1.8).Build()
	if err != nil {
		b.Fatal(err)
	}
	base := TranOptions{TStop: 80e-9, Record: []string{"n8_8"}}
	b.Run("unguarded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunTransient(sys, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("guarded", func(b *testing.B) {
		dir := b.TempDir()
		opts := base
		opts.CheckpointPath = filepath.Join(dir, "bench.wpcp")
		for i := 0; i < b.N; i++ {
			if _, err := RunTransient(sys, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
