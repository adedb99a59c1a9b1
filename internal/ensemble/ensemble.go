// Package ensemble runs K parameter-variants of one circuit topology as K
// serial transient runs dealt to one gang — the batch engine behind Monte
// Carlo, PVT-corner and parameter-sweep workloads.
//
// All lanes share the host System's symbolic work, computed exactly once: the
// compiled Jacobian pattern and the fill-reducing column ordering. Per lane,
// only values differ: a lane is transient.RunOn on a fresh workspace of the
// host that evaluates the lane's own device instances, so its waveform and
// counters are those of its own independent serial run because it is that
// run (on a linear host the lane's stamp template is built from its own
// devices too).
//
// The gang's members pull lane indices from one counter until none is left:
// a lane that finishes early, faults, or exhausts the recovery ladder at the
// step floor holds nobody up, and its member moves on to the next lane.
package ensemble

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"wavepipe/internal/circuit"
	"wavepipe/internal/faults"
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
	// Durability (Guard/Resume) and OnAccept are not supported inside lanes
	// and must be unset. Base.Trace receives the run's event
	// stream: per lane, the events of a serial run (Worker = lane index) and
	// one KindLaneRetire. Base.Ctx stops every lane at its next time-point
	// boundary; the run's stream carries one KindCancel however many lanes
	// were in flight.
	Base transient.Options
	// Workers is the lane-gang width, caller included. 0 selects
	// max(2, NumCPU); the width is never more than the lane count, nor than
	// Base.CoreBudget when that is set.
	Workers int
}

// LaneResult is one lane's outcome. Res is non-nil even on failure (the
// partial waveform up to the retirement point, empty for a lane without a
// first point); Err is nil for a lane that reached TStop.
type LaneResult struct {
	Name string
	Res  *transient.Result
	Err  error
}

// Result is the outcome of an ensemble run.
type Result struct {
	Lanes []LaneResult
	// Stats aggregates all lanes' work counters. CriticalNanos is the largest
	// per-member sum of its lanes' CriticalNanos — the busiest gang member's
	// solve time — and PipelineWorkers the gang width.
	Stats transient.Stats
	// Rounds is always 0: lanes no longer advance in gang rounds, and the
	// field stays only because bench/engine.go reads it. The benchmark PR of
	// ROADMAP item 2 removes it together with ensemble.rounds.
	Rounds int
}

func validate(base *transient.Options) error {
	switch {
	case base.TStop <= 0:
		return fmt.Errorf("ensemble: TStop must be positive")
	case base.Guard != nil || base.Resume != nil:
		return fmt.Errorf("ensemble: durable runs (Guard/Resume) are not supported inside lanes")
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
	base := opts.Base
	if err := validate(&base); err != nil {
		return nil, err
	}
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
		width = max(2, runtime.NumCPU())
	}
	if base.CoreBudget > 0 {
		width = min(width, base.CoreBudget)
	}
	pool := sched.NewPool(min(width, k))
	defer pool.Close()

	res := &Result{Lanes: make([]LaneResult, k)}
	crit := make([]int64, pool.Workers())
	var next atomic.Int64
	pool.Run(func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= k {
				return
			}
			res.Lanes[i] = runLane(sys, &lanes[i], i, base)
			crit[w] += res.Lanes[i].Res.Stats.CriticalNanos
		}
	})

	var err error
	for _, lr := range res.Lanes {
		res.Stats.Add(lr.Res.Stats)
		if err == nil && (errors.Is(lr.Err, faults.ErrCanceled) || errors.Is(lr.Err, faults.ErrDeadlineExceeded)) {
			// A run with nothing in flight when the context ended has not
			// reported it yet (the tracer keeps one KindCancel per run).
			t := lastTime(lr.Res)
			base.Trace.Emit(trace.Event{Kind: trace.KindCancel, T: t, Worker: -1})
			err = base.Stop("ensemble", t)
		}
	}
	res.Stats.CriticalNanos = slices.Max(crit)
	res.Stats.PipelineWorkers = pool.Workers()
	res.Stats.IntraWorkers = 1
	return res, err
}

// runLane is lane i's whole life: a serial run on a fresh workspace of the
// host with the lane's devices and fault harness, then its retirement event.
// A lane dealt after the context ended is not started.
func runLane(sys *circuit.System, l *Lane, i int, base transient.Options) LaneResult {
	lr := LaneResult{Name: l.Name}
	if lr.Name == "" {
		lr.Name = fmt.Sprintf("lane%d", i)
	}
	if lr.Err = base.Stop("transient", 0); lr.Err == nil {
		ws := sys.NewWorkspace()
		ws.Worker = int16(i)
		if lr.Err = ws.SetDevices(l.Circ.Devices()); lr.Err == nil {
			base.Faults = l.Faults
			lr.Res, lr.Err = transient.RunOn(ws, base)
		}
	}
	if lr.Res == nil { // not started, or no operating point
		lr.Res = &transient.Result{W: transient.RecordSet(sys, base), Recovery: &transient.RecoveryLog{}}
	}
	if base.Trace.Active() {
		ev := trace.Event{Kind: trace.KindLaneRetire, T: lastTime(lr.Res), Worker: int16(i), Detail: "finished"}
		if lr.Err != nil {
			ev.Flags |= trace.FlagFailed
			ev.Detail = "failed"
		}
		base.Trace.Emit(ev)
	}
	return lr
}

// lastTime is the time of the last point a lane accepted (0 when none).
func lastTime(r *transient.Result) float64 {
	if n := len(r.W.Times); n > 0 {
		return r.W.Times[n-1]
	}
	return 0
}
