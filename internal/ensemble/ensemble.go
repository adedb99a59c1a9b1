// Package ensemble runs K parameter-variants of one circuit topology in
// lockstep over a struct-of-arrays workspace — the batch engine behind
// Monte Carlo, PVT-corner and parameter-sweep workloads.
//
// All lanes share the host System's symbolic work, computed exactly once:
// the compiled Jacobian pattern and the fill-reducing column ordering (every
// lane solver factorizes through FactorizeWithPerm on the shared
// permutation). Per lane, only values differ: lane matrices stride
// one contiguous value block, the F/Q/B and limiting-state vectors stride a
// second, the Newton scratch (history vector, residual, update) a third,
// and each lane's history/candidate points are carved from a shared arena —
// so device evaluation iterates the models once per batched iteration and
// stamps the lanes' adjacent blocks (circuit.BatchLoad).
//
// Step control stays fully independent per lane: each lane owns a
// transient.Stepper — the serial engine's own step controller — and only the
// solve between its Plan and Finish is batched, so a lane's waveform is
// bit-identical to its own independent serial run (the incremental assembly
// engine is refused in lanes). Lanes share one sched core
// Budget: each round, the active lanes are dealt across the gang's workers,
// and within a worker's chunk the live Newton iterations advance in
// lockstep with batched assembly. A lane retires — finishes, faults, or
// exhausts the recovery ladder at the step floor — without stalling the
// gang: it is simply dropped from the next round's deal.
//
// Critical-path accounting follows the repository's hardware-substitution
// model: the aggregate Stats.CriticalNanos is the sum over rounds of the
// slowest worker chunk's measured wall time (plus the chunked DC phase and
// any serial recovery-ladder climbs), i.e. the wall time a machine with
// Workers free cores would need.
package ensemble

import (
	"fmt"
	"runtime"
	"time"

	"wavepipe/internal/circuit"
	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/sched"
	"wavepipe/internal/trace"
	"wavepipe/internal/transient"
)

// Lane describes one ensemble member: a circuit structurally identical to
// the host System's (same nodes, same device sequence and arity — only
// parameter values may differ).
type Lane struct {
	Name string
	Circ *circuit.Circuit
	// Faults, when non-nil, is a per-lane fault-injection harness (tests
	// only). Faulting one lane exercises the retirement path while the
	// remaining lanes run to completion.
	Faults *faults.Injector
}

// Options configures an ensemble run.
type Options struct {
	// Base is the per-lane analysis configuration, shared by every lane.
	// Durability (Guard/Resume), device bypass and OnAccept are not supported
	// inside lanes and must be unset. Base.Trace receives the run's event
	// stream: per lane, the event kinds of a serial run (Worker = lane index)
	// and one KindLaneRetire.
	Base transient.Options
	// Workers is the lane-gang width, caller included (the shared core
	// budget). 0 selects min(K, max(2, NumCPU)).
	Workers int
}

// LaneResult is one lane's outcome. Res is non-nil even on failure (the
// partial waveform up to the retirement point); Err is nil for a lane that
// reached TStop.
type LaneResult struct {
	Name string
	Res  *transient.Result
	Err  error
}

// Result is the outcome of an ensemble run.
type Result struct {
	Lanes []LaneResult
	// Stats aggregates all lanes' work counters; CriticalNanos holds the
	// gang's modeled critical path (not the per-lane sum), CoreBudget and
	// PipelineWorkers the gang width.
	Stats transient.Stats
	// Rounds is the number of gang rounds (every active lane attempts one
	// candidate point per round).
	Rounds int
}

// laneState is one lane: its step controller and the round's candidate.
type laneState struct {
	idx  int
	name string
	s    *transient.Stepper

	// Current-round candidate: planned marks a lane that has a candidate
	// time for this round, solving one whose point solve is open on the
	// lane's solver; the lockstep solve leaves pt/co or candErr.
	planned bool
	tNew    float64
	solving bool
	candErr error
	pt      *integrate.Point
	co      integrate.Coeffs

	// Retirement.
	done bool
	err  error
	res  *transient.Result
}

type engine struct {
	base  transient.Options
	tr    *trace.Tracer
	lanes []*laneState
	pool  *sched.Pool
	width int

	// Per-worker chunk scratch (BatchLoad argument slices), reused across
	// rounds so the steady state allocates nothing.
	chWS [][]*circuit.Workspace
	chXS [][][]float64
	chPS [][]circuit.LoadParams

	chunks [][]*laneState // per-worker chunk scratch

	walls      []int64 // per-worker chunk wall times of the current round
	crit       int64   // accumulated gang critical path
	roundCount int
}

func validate(base *transient.Options) error {
	switch {
	case base.TStop <= 0:
		return fmt.Errorf("ensemble: TStop must be positive")
	case base.Guard != nil || base.Resume != nil:
		return fmt.Errorf("ensemble: durable runs (Guard/Resume) are not supported inside lanes")
	case base.DeviceBypass:
		return fmt.Errorf("ensemble: device bypass is not supported inside lanes")
	case base.OnAccept != nil:
		return fmt.Errorf("ensemble: OnAccept is not supported inside lanes (the callback has no lane argument)")
	}
	return nil
}

// Run executes the ensemble. The host System must come from a Build of a
// circuit structurally identical to every lane's. The returned Result is
// non-nil whenever the setup succeeded, even if lanes failed; the error is
// non-nil only for setup failures or run-wide cancellation.
func Run(sys *circuit.System, lanes []Lane, opts Options) (*Result, error) {
	k := len(lanes)
	if k == 0 {
		return nil, fmt.Errorf("ensemble: no lanes")
	}
	if err := validate(&opts.Base); err != nil {
		return nil, err
	}
	base := opts.Base.WithDefaults()

	for i := range lanes {
		if lanes[i].Circ == nil {
			return nil, fmt.Errorf("ensemble: lane %d has no circuit", i)
		}
		if err := sys.BindLanes(lanes[i].Circ); err != nil {
			return nil, fmt.Errorf("ensemble: lane %d: %w", i, err)
		}
	}

	width := opts.Workers
	if width <= 0 {
		width = runtime.NumCPU()
		if width < 2 {
			width = 2
		}
	}
	if width > k {
		width = k
	}
	budget := sched.NewBudget(width)
	budget.Reserve(1) // the caller is the gang leader
	pool := budget.NewPool(width)
	defer pool.Close()

	e := &engine{base: base, tr: base.Trace, pool: pool, width: pool.Workers()}
	e.walls = make([]int64, e.width)
	e.chWS = make([][]*circuit.Workspace, e.width)
	e.chXS = make([][][]float64, e.width)
	e.chPS = make([][]circuit.LoadParams, e.width)
	e.chunks = make([][]*laneState, e.width)
	perChunk := (k + e.width - 1) / e.width
	for w := 0; w < e.width; w++ {
		e.chunks[w] = make([]*laneState, 0, perChunk)
		e.chWS[w] = make([]*circuit.Workspace, 0, perChunk)
		e.chXS[w] = make([][]float64, 0, perChunk)
		e.chPS[w] = make([]circuit.LoadParams, 0, perChunk)
	}

	// Struct-of-arrays lane state: matrices, vectors, Newton scratch and
	// point arenas all stride shared backing blocks.
	n := sys.N
	wss := sys.NewLaneWorkspaces(k)
	scratch := make([]float64, k*3*n)
	perLanePts := integrate.HistoryDepth + 8
	arena := make([]float64, k*perLanePts*3*n)
	e.lanes = make([]*laneState, k)
	// Cancellation is a gang-level event (one KindCancel, every lane retired
	// in the same round): the lane controllers poll only their own budgets.
	laneOpts := base
	laneOpts.Ctx = nil
	for i := range lanes {
		ws := wss[i]
		ws.SetDevices(lanes[i].Circ.Devices())
		ps := transient.NewPointSolverOn(ws, base.Method, base.Newton, base.Gmin,
			scratch[i*3*n:(i+1)*3*n])
		ps.Attach(&laneOpts, int16(i))
		ws.Faults = lanes[i].Faults
		ps.DonatePoints(integrate.CarvePoints(
			arena[i*perLanePts*3*n:(i+1)*perLanePts*3*n], perLanePts, n))
		name := lanes[i].Name
		if name == "" {
			name = fmt.Sprintf("lane%d", i)
		}
		e.lanes[i] = &laneState{
			idx: i, name: name,
			s: transient.NewStepper(sys, ps, &laneOpts, "transient"),
		}
	}

	e.runDC()
	err := e.loop()

	lr := make([]LaneResult, k)
	agg := transient.Stats{}
	for i, st := range e.lanes {
		lr[i] = LaneResult{Name: st.name, Res: st.res, Err: st.err}
		if st.res != nil {
			agg.Add(st.res.Stats)
		}
	}
	// The summed CriticalNanos double-counts nothing here (lockstep
	// candidates do not accumulate it), but what the caller needs is the
	// gang's modeled critical path: overwrite with the round-level model.
	agg.CriticalNanos = e.crit
	agg.CoreBudget = e.width
	agg.PipelineWorkers = e.width
	agg.IntraWorkers = 1
	return &Result{Lanes: lr, Stats: agg, Rounds: e.roundCount}, err
}

// runDC computes every lane's t = 0 point, dealt across the gang like a
// solve round (its slowest chunk joins the critical path).
func (e *engine) runDC() {
	e.dispatch(func(st *laneState) {
		_, st.candErr = st.s.Start()
	})
	for _, st := range e.lanes {
		if st.candErr != nil {
			err := st.candErr
			st.candErr = nil
			e.retire(st, err)
		}
	}
}

// foldWalls adds the slowest worker's wall time of the gang round just
// joined to the critical path and clears the slate for the next round.
func (e *engine) foldWalls() {
	max := int64(0)
	for w, d := range e.walls {
		if d > max {
			max = d
		}
		e.walls[w] = 0
	}
	e.crit += max
}

// dispatch deals every non-retired lane across the gang (lane i goes to
// worker i mod width) and runs fn per lane on the owning worker.
func (e *engine) dispatch(fn func(*laneState)) {
	e.pool.Run(func(w int) {
		t0 := time.Now()
		busy := false
		for i := w; i < len(e.lanes); i += e.width {
			if st := e.lanes[i]; !st.done {
				fn(st)
				busy = true
			}
		}
		if busy {
			e.walls[w] = time.Since(t0).Nanoseconds()
		}
	})
	e.foldWalls()
}

// loop is the round engine: plan (serial) → lockstep chunk solves (gang) →
// acceptance bookkeeping and retirement (serial), until every lane retired.
func (e *engine) loop() error {
	for {
		active := 0
		for _, st := range e.lanes {
			if !st.done {
				active++
			}
		}
		if active == 0 {
			return nil
		}
		if e.base.Canceled() {
			if e.tr.Active() {
				e.tr.Emit(trace.Event{Kind: trace.KindCancel, Worker: -1})
			}
			var firstT float64
			first := true
			for _, st := range e.lanes {
				if st.done {
					continue
				}
				if first {
					firstT, first = st.s.T, false
				}
				e.retire(st, transient.CancelError("transient", st.s.T))
			}
			return transient.CancelError("ensemble", firstT)
		}
		e.roundCount++
		for _, st := range e.lanes {
			st.planned = false
			if st.done {
				continue
			}
			if err := st.s.Poll(st.s.Snapshot); err != nil {
				e.retire(st, err)
				continue
			}
			st.tNew, _ = st.s.Plan()
			st.planned = true
		}
		e.dispatchChunks() // each worker's lanes advance in one lockstep chunk
		for _, st := range e.lanes {
			if !st.done && st.planned {
				e.finishRound(st)
			}
		}
	}
}

// finishRound takes one lane's solved (or failed) candidate through its
// step controller: failure → step shrink (re-planned next round) or the
// recovery ladder at the floor; then LTE acceptance, commit, restart or
// next step.
func (e *engine) finishRound(st *laneState) {
	pt, co := st.pt, st.co
	if st.candErr != nil {
		// At the floor the ladder climbs serially — the cold path, whose
		// wall time joins the critical path directly.
		t0 := time.Now()
		var err error
		pt, co, err = st.s.Failed()
		e.crit += time.Since(t0).Nanoseconds()
		if err != nil {
			e.retire(st, err)
			return
		}
		if pt == nil {
			return
		}
	}
	if st.s.Finish(pt, co) && st.s.Done() {
		e.retire(st, nil)
	}
}

// retire detaches a lane from the gang, freezing its Result. err == nil
// means the lane reached TStop.
func (e *engine) retire(st *laneState, err error) {
	st.done = true
	st.err = err
	st.res = st.s.Result(st.s.Totals())
	if e.tr.Active() {
		ev := trace.Event{Kind: trace.KindLaneRetire, T: st.s.T, Worker: int16(st.idx), Detail: "finished"}
		if err != nil {
			ev.Flags |= trace.FlagFailed
			ev.Detail = "failed"
		}
		e.tr.Emit(ev)
	}
}

// dispatchChunks deals the round's planned lanes across the gang the same
// way and advances each worker's chunk in lockstep.
func (e *engine) dispatchChunks() {
	e.pool.Run(func(w int) {
		chunk := e.chunks[w][:0]
		for i := w; i < len(e.lanes); i += e.width {
			if st := e.lanes[i]; !st.done && st.planned {
				chunk = append(chunk, st)
			}
		}
		e.chunks[w] = chunk
		if len(chunk) == 0 {
			return
		}
		t0 := time.Now()
		e.solveChunk(w, chunk)
		e.walls[w] = time.Since(t0).Nanoseconds()
	})
	e.foldWalls()
}

// solveChunk advances one worker's lanes through a full candidate solve in
// lockstep: every live lane's device load is batched (device-outer,
// lane-inner over the chunk's struct-of-arrays blocks), then each lane runs
// the per-lane remainder of the Newton iteration. Lanes leave the lockstep
// as they converge or fail; results land in the lane state for the serial
// acceptance phase.
func (e *engine) solveChunk(w int, chunk []*laneState) {
	live := 0
	for _, st := range chunk {
		st.pt = nil
		st.candErr = st.s.PS.Begin(st.s.Hist, st.tNew)
		st.co = st.s.PS.Coeffs()
		if st.solving = st.candErr == nil; st.solving {
			live++
		}
	}
	wss := e.chWS[w][:0]
	xs := e.chXS[w][:0]
	lps := e.chPS[w][:0]
	for live > 0 {
		wss, xs, lps = wss[:0], xs[:0], lps[:0]
		for _, st := range chunk {
			if !st.solving {
				wss = append(wss, nil)
				xs = append(xs, nil)
				lps = append(lps, circuit.LoadParams{})
				continue
			}
			x, p := st.s.PS.LoadArgs()
			wss = append(wss, st.s.PS.WS)
			xs = append(xs, x)
			lps = append(lps, p)
		}
		circuit.BatchLoad(wss, xs, lps)
		for _, st := range chunk {
			if !st.solving {
				continue
			}
			done, err := st.s.PS.Step()
			if err != nil {
				st.candErr = st.s.PS.Fail(err)
			} else if done {
				st.pt = st.s.PS.Commit()
			} else {
				continue
			}
			st.solving = false
			live--
		}
	}
	e.chWS[w], e.chXS[w], e.chPS[w] = wss, xs, lps
}
