// Package windows implements time-parallel transient simulation: a
// pipelined Parareal coordinator layered over the existing serial and
// WavePipe engines (Ruprecht, arXiv 1509.06935).
//
// WavePipe's pipelined time-stepping saturates at 3-4 threads by
// construction, so cores beyond that are idle for a single run. The window
// coordinator soaks them up along the time axis: a cheap coarse propagator
// (large fixed steps, loosened Newton tolerance) sweeps [0, TStop] once and
// hands each of W windows a seed state in the checkpoint format; every window
// is then refined concurrently by an ordinary fine engine resumed from its
// seed. Window w's fine solution is speculative until window w-1 has
// converged: the coordinator compares the coarse seed against the exact
// predecessor end state under the fine tolerances, and either accepts the
// speculative solve (gate passed) or redoes the window from the exact state
// (one pipelined Parareal correction). Because window w+1 only waits for
// window w's *convergence*, corrections propagate without a global iteration
// barrier.
//
// Guarantees and containment mirror the FWP discard/redo logic:
//
//   - The convergence gate is a weighted max-norm under the fine
//     tolerances, so an accepted speculative window differs from the exact
//     chain by at most Gate error weights at the seam — the same currency
//     the LTE controller budgets per step.
//   - Under the strict gate no speculative window is ever accepted: the
//     run degenerates to the sequential window chain (bit-identical to
//     handing the final checkpoint of each window to the next).
//   - When consecutive windows fail to contract the coordinator stops
//     speculating (serial fallback): remaining windows wait for their
//     predecessor and run once from the exact state, costing at most the
//     serial run plus the wasted speculation.
//
// Core accounting goes through sched.SplitBudget: at most wconc windows
// run at once, each inner engine granted CoreBudget/wconc cores, so
// windows × pipeline parallelism never oversubscribes.
package windows

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"wavepipe/internal/checkpoint"
	"wavepipe/internal/circuit"
	"wavepipe/internal/integrate"
	"wavepipe/internal/newton"
	"wavepipe/internal/num"
	"wavepipe/internal/sched"
	"wavepipe/internal/trace"
	"wavepipe/internal/transient"
	"wavepipe/internal/waveform"
)

// The coarse propagator, the gate default and the fallback streak.
const (
	// DefaultSteps is the number of fixed coarse steps per window. The
	// coarse propagator integrates with NoLTE at h = windowLen/DefaultSteps,
	// still landing on device breakpoints, so its cost is roughly
	// W·DefaultSteps point solves regardless of the fine step density.
	DefaultSteps = 16
	// DefaultTolScale loosens the coarse Newton tolerances. Coarse accuracy
	// only has to be good enough to pass the gate, not to ship: accepted
	// waveforms always come from fine solves.
	DefaultTolScale = 8
	// DefaultGate is the convergence gate in fine error weights when
	// CoarseOptions.Gate is zero.
	DefaultGate = 2
	// DefaultFallbackAfter is the consecutive-redo streak that triggers
	// serial fallback.
	DefaultFallbackAfter = 2
)

// CoarseOptions tunes the per-window convergence gate of the Parareal
// coarse propagator. The zero value selects the defaults.
type CoarseOptions struct {
	// Gate is the per-window convergence threshold in fine error weights
	// (default 2): a speculative window is accepted when the weighted
	// max-norm of (coarse seed − exact predecessor end state) under the
	// fine tolerances is ≤ Gate. The default keeps accepted seams within
	// the same order of error the LTE controller already tolerates per
	// step; raising it trades waveform accuracy for fewer redos.
	Gate float64
	// Strict never accepts a speculative window: every window is solved
	// from its exact predecessor state, making the result bit-identical
	// to the sequential window chain. Intended for verification.
	Strict bool
}

func (c CoarseOptions) withDefaults() CoarseOptions {
	if c.Gate <= 0 {
		c.Gate = DefaultGate
	}
	return c
}

// Options configures a time-parallel run.
type Options struct {
	// W is the number of time windows (≥ 2; 1 falls through to Fine).
	W int
	// Coarse tunes the coarse propagator and convergence gate.
	Coarse CoarseOptions
	// Base is the fine analysis configuration for the full run: TStop is
	// the full horizon; Control, when zero, is defaulted from it so inner
	// runs never re-derive step bounds from window-local horizons.
	Base transient.Options
	// ThreadsPerWindow is the core cost of one fine engine instance (its
	// pipeline width; 1 for the serial engine). It is the gang width the
	// core budget is split by.
	ThreadsPerWindow int
	// CoreBudget caps total concurrent cores across all windows plus the
	// coarse sweep. 0 leaves concurrency unmanaged (all W windows may
	// run at once).
	CoreBudget int
	// Fine runs one fine solve over a fully-prepared window-local options
	// value (TStop, Resume, Guard, CoreBudget set by the coordinator).
	// The facade injects its scheme dispatch here; nil defaults to the
	// serial engine.
	Fine func(transient.Options) (*transient.Result, error)
}

// winRec is one window's outcome, written only by that window's worker.
type winRec struct {
	specRes *transient.Result // speculative attempt (window 0: the exact run)
	redoRes *transient.Result // exact-seeded attempt (gate fail or strict)
	gateOK  bool              // speculative solve accepted
	res     *transient.Result // the accepted (or last attempted) result
	end     *checkpoint.State // exact end state handed to the successor
	err     error
}

// winState is what a window publishes to its successor.
type winState struct {
	state *checkpoint.State
	err   error
}

type runner struct {
	sys    *circuit.System
	opts   Options
	base   transient.Options
	coarse CoarseOptions
	tb     []float64 // W+1 window boundaries, tb[0]=0, tb[W]=TStop
	bps    []float64 // sorted device breakpoints over [0, TStop]
	tr     *trace.Tracer
	tol    num.Tolerances // fine tolerances the gate is judged under

	wconc       int
	innerBudget int
	slots       chan struct{}

	fallback   atomic.Bool
	redoStreak atomic.Int32
	fineSolves atomic.Int64
	redoCount  atomic.Int64

	recs       []winRec
	seedCh     []chan *checkpoint.State
	convCh     []chan *winState
	coarseRes  []*transient.Result
	coarseErr  error
	coarseSkip bool

	statsMu sync.Mutex
	stats   transient.Stats
}

// Run executes a time-parallel transient analysis over sys and stitches
// the per-window results into one Result whose Stats aggregate every inner
// engine run (coarse segments, speculative solves and redos), so a shared
// trace stream still reconciles 1:1 against the counters. On failure the
// converged window prefix is returned alongside the error.
func Run(sys *circuit.System, opts Options) (*transient.Result, error) {
	if opts.Fine == nil {
		opts.Fine = func(o transient.Options) (*transient.Result, error) {
			return transient.Run(sys, o)
		}
	}
	if opts.W < 2 {
		return opts.Fine(opts.Base)
	}
	base := opts.Base
	if base.TStop <= 0 {
		return nil, fmt.Errorf("windows: TStop must be positive, got %g", base.TStop)
	}
	if base.Control == (integrate.Control{}) {
		base.Control = integrate.DefaultControl(base.TStop)
	}
	if base.HInit <= 0 {
		// The engines default HInit (and the RestartStep floor) from their
		// own TStop; pin it from the full horizon so an inner run over a
		// short window takes the same first step the serial engine would.
		base.HInit = base.TStop * 1e-6
	}
	base.OnAccept = nil // replayed over the stitched waveform at the end

	bps := transient.CollectBreakpoints(sys, base.TStop)
	tb := planBoundaries(base.TStop, opts.W, bps)
	if len(tb) < 3 {
		// No usable cut point: the circuit offers nowhere to split time
		// without losing accuracy. Degenerate to the plain engine (window
		// counters stay zero — no time-parallel window was launched).
		return opts.Fine(base)
	}
	W := len(tb) - 1
	opts.W = W
	r := &runner{
		sys:    sys,
		opts:   opts,
		base:   base,
		coarse: opts.Coarse.withDefaults(),
		tb:     tb,
		bps:    bps,
		tr:     base.Trace,
		tol:    base.Control.Tol,
		recs:   make([]winRec, W),
		seedCh: make([]chan *checkpoint.State, W),
		convCh: make([]chan *winState, W),
	}
	perWindow := opts.ThreadsPerWindow
	if perWindow < 1 {
		perWindow = 1
	}
	r.wconc, r.innerBudget = sched.SplitBudget(opts.CoreBudget, perWindow, W)
	r.slots = make(chan struct{}, r.wconc)
	for w := 0; w < W; w++ {
		r.seedCh[w] = make(chan *checkpoint.State, 1)
		r.convCh[w] = make(chan *winState, 1)
	}
	// Under the strict gate every window restarts from its exact
	// predecessor anyway, so coarse seeds would be dead work.
	r.coarseSkip = r.coarse.Strict

	var wg sync.WaitGroup
	if !r.coarseSkip {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.coarseSweep()
		}()
	}
	for w := 0; w < W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.worker(w)
		}(w)
	}
	wg.Wait()
	return r.assemble()
}

// acquire claims one of the wconc concurrency slots; a window holding one
// runs under the per-window share innerBudget, so wconc × innerBudget ≤
// CoreBudget.
func (r *runner) acquire() { r.slots <- struct{}{} }

func (r *runner) release() { <-r.slots }

func (r *runner) emit(kind trace.Kind, w int, t float64) {
	if !r.tr.Active() {
		return
	}
	r.tr.Emit(trace.Event{
		Kind:   kind,
		T:      t,
		H:      r.tb[w+1] - r.tb[w],
		Stage:  int32(w),
		Worker: -1,
	})
}

// planBoundaries places the window boundaries for a requested window count.
// The engines truncate integrator history and restart first-order at every
// breakpoint landing — including the artificial landing a window boundary
// forces — so boundary placement decides the accuracy of the whole scheme:
//
//   - Each uniform-grid target snaps to the nearest device waveform
//     breakpoint within half a window. The serial engine restarts there
//     anyway, so the window chain reproduces its exact step sequence and
//     the sequential chain is bit-identical to the serial run.
//   - On a circuit whose waveforms have edges (interior breakpoints exist),
//     a target with no breakpoint nearby is dropped and its two windows
//     merge: cutting mid-edge on switching waveforms shifts edge timing by
//     more than any seam tolerance is worth. The effective window count
//     can therefore be smaller than requested.
//   - On a smooth circuit (no interior breakpoints at all — sinusoidal or
//     DC drive), targets stay on the uniform grid: the engines keep
//     full-order history at a plain-horizon landing, so the continuation
//     costs one LTE-bounded step perturbation, not a restart transient.
//
// The returned slice holds the kept boundaries: tb[0] = 0, tb[last] =
// tstop. len(tb) < 3 means time cannot be usefully split.
func planBoundaries(tstop float64, W int, bps []float64) []float64 {
	winLen := tstop / float64(W)
	interior := false
	for _, bp := range bps {
		if bp < tstop*(1-1e-9) {
			interior = true
			break
		}
	}
	tb := make([]float64, 1, W+1)
	for k := 1; k < W; k++ {
		target := tstop * float64(k) / float64(W)
		best := -1.0
		for _, bp := range bps {
			if bp <= tb[len(tb)-1]+winLen/8 || bp >= tstop-winLen/8 {
				continue
			}
			if bp < target-winLen/2 || bp > target+winLen/2 {
				continue
			}
			if best < 0 || math.Abs(bp-target) < math.Abs(best-target) {
				best = bp
			}
		}
		switch {
		case best > 0:
			tb = append(tb, best)
		case !interior && target > tb[len(tb)-1]+winLen/8:
			tb = append(tb, target)
		}
	}
	return append(tb, tstop)
}

// restartH computes the first step after a landing at time t exactly as the
// serial engine does after a breakpoint: a fraction of the gap to the next
// device breakpoint, bounded by the last accepted step hUsed. An engine
// stopping at its window-local TStop sees a zero gap and retains a floored
// step; the coordinator knows the global breakpoint list and restores the
// step the serial engine would have chosen at the same instant.
func (r *runner) restartH(t, hUsed float64) float64 {
	return transient.RestartStep(transient.GapAfter(r.bps, t, r.base.TStop), hUsed, r.base.HInit, r.base.Control)
}

// coarseH is the fixed coarse step for window w.
func (r *runner) coarseH(w int) float64 {
	return (r.tb[w+1] - r.tb[w]) / DefaultSteps
}

// coarseOptions derives the coarse propagator configuration for the
// segment covering window w from the fine base: fixed NoLTE steps at
// windowLen/DefaultSteps and Newton tolerances loosened by DefaultTolScale.
// Fault injection is stripped — the coarse sweep is an accelerator, and
// injected faults belong to the fine runs whose results actually ship.
func (r *runner) coarseOptions(w int, resume *checkpoint.State) transient.Options {
	o := r.base
	o.TStop = r.tb[w+1]
	o.NoLTE = true
	o.HInit = r.coarseH(w)
	n := o.Newton
	if n.MaxIter == 0 {
		n = newton.DefaultOptions()
	}
	if n.Tol == (num.Tolerances{}) {
		n.Tol = num.DefaultTolerances()
	}
	n.Tol.RelTol *= DefaultTolScale
	n.Tol.AbsTol *= DefaultTolScale
	o.Newton = n
	o.Control.Tol.RelTol *= DefaultTolScale
	o.Control.Tol.AbsTol *= DefaultTolScale
	o.Faults = nil
	o.CoreBudget = r.innerBudget
	o.Resume = resume
	return o
}

// coarseSweep runs W-1 sequential coarse segments over [0, tb[W-1]],
// publishing window w's seed as soon as segment w-1 lands. It holds one
// concurrency slot for the whole sweep — the coarse lane of the pipelined
// Parareal schedule. Every seed channel is always published exactly once
// (nil on failure), so workers never block on a dead sweep.
func (r *runner) coarseSweep() {
	published := 1
	defer func() {
		for ; published < r.opts.W; published++ {
			r.seedCh[published] <- nil
		}
	}()
	r.acquire()
	defer r.release()
	var resume *checkpoint.State
	for k := 0; k < r.opts.W-1; k++ {
		if err := r.base.Stop("window-coordinator", 0); err != nil {
			r.coarseErr = err
			return
		}
		guard := checkpoint.NewController(checkpoint.Config{})
		o := r.coarseOptions(k, resume)
		o.Guard = guard
		res, err := transient.Run(r.sys, o)
		r.coarseRes = append(r.coarseRes, res)
		r.addStats(res)
		if err != nil {
			r.coarseErr = err
			return
		}
		end := guard.Retained()
		if end == nil {
			r.coarseErr = fmt.Errorf("windows: coarse segment %d retained no state", k)
			return
		}
		// Two independent deep copies: the fine window and the next
		// coarse segment both consume (and mutate) their seed's history.
		r.seedCh[k+1] <- seedFrom(end, r.tb[k+2], r.restartH(end.T, end.HUsed))
		published++
		if k+1 < r.opts.W-1 {
			resume = seedFrom(end, r.tb[k+2], 0)
			// The coarse chain is NoLTE fixed-step: a truncated landing
			// step must not leak into the next segment (NoLTE never grows
			// the step back), so pin the segment's own coarse step. The
			// segment's Stepper reads it through SetStep.
			resume.H = r.coarseH(k + 1) // checkpoint.State
		}
	}
}

// seedFrom rewrites a final checkpoint state into a window seed: the run
// horizon becomes the window end, the recorded waveform is truncated to
// its final sample (the seam the stitcher later drops), counters and the
// recovery log reset so inner stats sum cleanly, and the trailing history
// is deep-copied because the consuming engine recycles history buffers in
// place. The LU snapshot is kept: restoring it makes the window's first
// factorization a numeric refactor along the predecessor's pivot sequence
// — the same path the uninterrupted engine takes — which is what makes the
// sequential window chain bit-identical to serial (a fresh factorization
// may legally pick a different pivot order and a different summation
// order). The snapshot is immutable and deep-copied on restore, so sharing
// it across window seeds is safe. hOverride > 0
// replaces the restart step, but only when the captured state is a
// post-edge restart (AfterBreak): the engine that produced it saw a zero
// gap beyond its own horizon, and the coordinator knows the true gap to
// the next global breakpoint. A full-order continuation state keeps its
// own LTE-chosen step.
func seedFrom(st *checkpoint.State, tEnd, hOverride float64) *checkpoint.State {
	s := *st
	s.TStop = tEnd
	if hOverride > 0 && s.AfterBreak {
		// The consuming Stepper reads the seed's step through SetStep, as
		// the uninterrupted run's Land would have set it.
		s.H = hOverride // checkpoint.State
	}
	s.Stats = make([]int64, checkpoint.Counters)
	s.Recovery = nil
	n := len(st.WaveTimes)
	if n > 0 {
		s.WaveTimes = st.WaveTimes[n-1:]
		s.WaveData = st.WaveData[n-1:]
	}
	pts := make([]*integrate.Point, len(st.Hist))
	for i, p := range st.Hist {
		pts[i] = &integrate.Point{
			T:    p.T,
			X:    num.Copy(p.X),
			Q:    num.Copy(p.Q),
			Qdot: num.Copy(p.Qdot),
		}
	}
	s.Hist = pts
	return &s
}

// fineWindow runs one fine solve over window w from seed (nil: from t=0
// through the DC operating point) and returns the result plus the exact
// end state retained by the engine's final checkpoint.
func (r *runner) fineWindow(w int, seed *checkpoint.State) (*transient.Result, *checkpoint.State, error) {
	guard := checkpoint.NewController(checkpoint.Config{})
	o := r.base
	o.TStop = r.tb[w+1]
	o.Resume = seed
	o.Guard = guard
	o.CoreBudget = r.innerBudget
	res, err := r.opts.Fine(o)
	r.fineSolves.Add(1)
	r.addStats(res)
	end := guard.Retained()
	if err == nil && end == nil {
		err = fmt.Errorf("windows: window %d retained no final state", w)
	}
	return res, end, err
}

func (r *runner) addStats(res *transient.Result) {
	if res == nil {
		return
	}
	r.statsMu.Lock()
	r.stats.Add(res.Stats)
	r.statsMu.Unlock()
}

// gatePass implements the per-window convergence gate: the coarse seed is
// close enough to the exact predecessor end state when their weighted
// max-norm distance under the fine tolerances is within Gate — the same
// error currency the LTE controller budgets per accepted step.
func (r *runner) gatePass(seedX []float64, exact *checkpoint.State) bool {
	if seedX == nil || exact == nil || len(exact.Hist) == 0 {
		return false
	}
	ref := exact.Hist[len(exact.Hist)-1].X
	if len(ref) != len(seedX) {
		return false
	}
	diff := make([]float64, len(ref))
	for i := range ref {
		diff[i] = seedX[i] - ref[i]
	}
	return r.tol.WeightedMaxNorm(diff, ref) <= r.coarse.Gate
}

func (r *runner) worker(w int) {
	rec := &r.recs[w]
	defer func() {
		r.convCh[w] <- &winState{state: rec.end, err: rec.err}
	}()
	r.emit(trace.KindWindowSeed, w, r.tb[w])

	if w == 0 {
		// Window 0's "speculative" solve starts from the true initial
		// conditions, so it is exact by construction.
		r.acquire()
		rec.specRes, rec.end, rec.err = r.fineWindow(0, nil)
		r.release()
		rec.res, rec.gateOK = rec.specRes, rec.err == nil
		if rec.err == nil {
			r.emit(trace.KindWindowConverge, w, r.tb[w+1])
		}
		return
	}

	var seedX []float64
	var specEnd *checkpoint.State
	var specErr error
	if !r.coarseSkip {
		if seed := <-r.seedCh[w]; seed != nil && !r.fallback.Load() {
			seedX = num.Copy(seed.Hist[len(seed.Hist)-1].X)
			r.acquire()
			rec.specRes, specEnd, specErr = r.fineWindow(w, seed)
			r.release()
		}
	}

	pred := <-r.convCh[w-1]
	if pred.err != nil {
		rec.err = pred.err
		return
	}
	if rec.specRes != nil && specErr == nil && !r.coarse.Strict && r.gatePass(seedX, pred.state) {
		rec.res, rec.end, rec.gateOK = rec.specRes, specEnd, true
		r.redoStreak.Store(0)
		r.emit(trace.KindWindowConverge, w, r.tb[w+1])
		return
	}

	if !r.coarse.Strict {
		// The window failed to contract (or never got a usable seed):
		// one pipelined Parareal correction from the exact state. A
		// persistent streak means the coarse propagator is not pulling
		// its weight — stop speculating and let the remaining windows
		// run as a sequential chain.
		r.redoCount.Add(1)
		r.emit(trace.KindWindowRedo, w, r.tb[w])
		if int(r.redoStreak.Add(1)) >= DefaultFallbackAfter && r.fallback.CompareAndSwap(false, true) {
			if r.tr.Active() {
				r.tr.Emit(trace.Event{
					Kind:   trace.KindSerialFallback,
					T:      r.tb[w],
					Stage:  int32(w),
					Worker: -1,
					Detail: "parareal windows failed to contract",
				})
			}
		}
	}
	rseed := seedFrom(pred.state, r.tb[w+1], r.restartH(pred.state.T, pred.state.HUsed))
	r.acquire()
	rec.redoRes, rec.end, rec.err = r.fineWindow(w, rseed)
	r.release()
	rec.res = rec.redoRes
	if rec.err == nil {
		r.emit(trace.KindWindowConverge, w, r.tb[w+1])
	}
}

// assemble stitches the per-window waveforms (dropping each seam's
// duplicated seed sample), merges stats and recovery logs across every
// inner run, models the multi-core critical path of the window schedule,
// and replays OnAccept over the stitched rows.
func (r *runner) assemble() (*transient.Result, error) {
	W := r.opts.W
	out := &transient.Result{Recovery: &transient.RecoveryLog{}}

	var names []string
	var index []int
	var times []float64
	var data [][]float64
	var firstErr error
	for w := 0; w < W; w++ {
		rec := &r.recs[w]
		res := rec.res
		if res == nil || res.W == nil || res.W.Len() == 0 {
			if rec.err != nil && firstErr == nil {
				firstErr = rec.err
			}
			break
		}
		if w == 0 {
			names, index = res.W.Names, res.W.Index
			times = append(times, res.W.Times...)
			data = append(data, res.W.Data...)
		} else {
			times = append(times, res.W.Times[1:]...)
			data = append(data, res.W.Data[1:]...)
		}
		out.FinalX = res.FinalX
		if rec.err != nil {
			if firstErr == nil {
				firstErr = rec.err
			}
			break
		}
	}
	if names != nil {
		set, err := waveform.Restore(names, index, times, data)
		if err != nil {
			return nil, fmt.Errorf("windows: stitching produced an invalid waveform: %w", err)
		}
		out.W = set
	}

	// Recovery log: coarse first, then per window (discarded speculative
	// attempts included — their robustness actions really happened).
	mergeRL := func(res *transient.Result) {
		if res == nil || res.Recovery == nil {
			return
		}
		for _, ev := range res.Recovery.Events() {
			out.Recovery.Note(ev.T, ev.Kind, ev.Detail)
		}
	}
	for _, res := range r.coarseRes {
		mergeRL(res)
	}
	if r.coarseErr != nil {
		out.Recovery.Note(0, "coarse-abort", r.coarseErr.Error())
	}
	if r.fallback.Load() {
		out.Recovery.Note(0, transient.RecoverySerialFallback,
			"parareal windows failed to contract")
	}
	for w := 0; w < W; w++ {
		mergeRL(r.recs[w].specRes)
		if r.recs[w].redoRes != r.recs[w].specRes {
			mergeRL(r.recs[w].redoRes)
		}
	}

	out.Stats = r.stats
	out.Stats.WindowsLaunched = int64(W)
	out.Stats.PararealIters = r.fineSolves.Load()
	out.Stats.WindowRedos = r.redoCount.Load()
	if r.opts.CoreBudget > out.Stats.CoreBudget {
		out.Stats.CoreBudget = r.opts.CoreBudget
	}
	out.Stats.CriticalNanos = r.modelCritical()

	if r.opts.Base.OnAccept != nil && out.W != nil {
		for i, t := range out.W.Times {
			r.opts.Base.OnAccept(t, out.W.Data[i])
		}
	}
	return out, firstErr
}

// modelCritical replays the window schedule against the measured
// per-attempt critical paths: the coarse sweep occupies one of the wconc
// concurrency slots, speculative solves start when their seed is ready and
// a slot frees up, and window w converges no earlier than window w-1 plus
// its own correction when the gate failed. This is the same hardware-
// substitution timing model the engines use (DESIGN.md), extended across
// the time axis.
func (r *runner) modelCritical() int64 {
	W := r.opts.W
	slots := make([]int64, r.wconc)
	seedReady := make([]int64, W)
	var cum int64
	for k, res := range r.coarseRes {
		if res != nil {
			cum += res.Stats.CriticalNanos
		}
		if k+1 < W {
			seedReady[k+1] = cum
		}
	}
	if cum > 0 {
		slots[0] = cum // the coarse lane
	}
	crit := func(res *transient.Result) int64 {
		if res == nil {
			return 0
		}
		return res.Stats.CriticalNanos
	}
	conv := make([]int64, W)
	var last int64
	for w := 0; w < W; w++ {
		rec := &r.recs[w]
		var specDone int64
		if rec.specRes != nil {
			si := 0
			for i := range slots {
				if slots[i] < slots[si] {
					si = i
				}
			}
			start := slots[si]
			if seedReady[w] > start {
				start = seedReady[w]
			}
			specDone = start + crit(rec.specRes)
			slots[si] = specDone
		}
		switch {
		case w == 0:
			conv[0] = specDone
		case rec.gateOK:
			conv[w] = conv[w-1]
			if specDone > conv[w] {
				conv[w] = specDone
			}
		default:
			conv[w] = conv[w-1] + crit(rec.redoRes)
		}
		if rec.res != nil {
			last = conv[w]
		}
	}
	return last
}
