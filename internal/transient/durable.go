package transient

import (
	"fmt"

	"wavepipe/internal/checkpoint"
	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/num"
	"wavepipe/internal/waveform"
)

// Durable-run plumbing: converting between the engine's native state and
// checkpoint.State. The checkpoint package cannot import transient (the
// dependency points the other way), so Stats and RecoveryEvent are mirrored
// there and converted here.

// snapStats widens engine stats to the checkpoint's fixed-width mirror.
func snapStats(s Stats) checkpoint.Stats {
	return checkpoint.Stats{
		Points:             int64(s.Points),
		Solves:             int64(s.Solves),
		NRIters:            int64(s.NRIters),
		LTERejects:         int64(s.LTERejects),
		NRFailures:         int64(s.NRFailures),
		Discarded:          int64(s.Discarded),
		OpIters:            int64(s.OpIters),
		Stages:             int64(s.Stages),
		Recoveries:         int64(s.Recoveries),
		WorkerPanics:       int64(s.WorkerPanics),
		DegradedStages:     int64(s.DegradedStages),
		Refactorizations:   int64(s.Refactorizations),
		FullFactorizations: int64(s.FullFactorizations),
		LinearStampHits:    s.LinearStampHits,
		CriticalNanos:      s.CriticalNanos,
		CoreBudget:         int64(s.CoreBudget),
		PipelineWorkers:    int64(s.PipelineWorkers),
		IntraWorkers:       int64(s.IntraWorkers),
		PipelineSerialized: s.PipelineSerialized,
	}
}

// unsnapStats narrows checkpointed stats back to the engine representation.
func unsnapStats(s checkpoint.Stats) Stats {
	return Stats{
		Points:             int(s.Points),
		Solves:             int(s.Solves),
		NRIters:            int(s.NRIters),
		LTERejects:         int(s.LTERejects),
		NRFailures:         int(s.NRFailures),
		Discarded:          int(s.Discarded),
		OpIters:            int(s.OpIters),
		Stages:             int(s.Stages),
		Recoveries:         int(s.Recoveries),
		WorkerPanics:       int(s.WorkerPanics),
		DegradedStages:     int(s.DegradedStages),
		Refactorizations:   int(s.Refactorizations),
		FullFactorizations: int(s.FullFactorizations),
		LinearStampHits:    s.LinearStampHits,
		CriticalNanos:      s.CriticalNanos,
		CoreBudget:         int(s.CoreBudget),
		PipelineWorkers:    int(s.PipelineWorkers),
		IntraWorkers:       int(s.IntraWorkers),
		PipelineSerialized: s.PipelineSerialized,
	}
}

// snapRecovery / unsnapRecovery convert the recovery log.
func snapRecovery(rl *RecoveryLog) []checkpoint.RecoveryEvent {
	evs := rl.Events()
	out := make([]checkpoint.RecoveryEvent, len(evs))
	for i, e := range evs {
		out[i] = checkpoint.RecoveryEvent{T: e.T, Kind: e.Kind, Detail: e.Detail}
	}
	return out
}

func unsnapRecovery(evs []checkpoint.RecoveryEvent) *RecoveryLog {
	rl := &RecoveryLog{}
	for _, e := range evs {
		rl.Note(e.T, e.Kind, e.Detail)
	}
	return rl
}

// badCheckpoint builds the typed error every resume-validation failure
// surfaces.
func badCheckpoint(format string, args ...any) error {
	return &faults.SimError{
		Phase: "checkpoint", Node: -1,
		Cause: fmt.Errorf("%w: %s", faults.ErrBadCheckpoint, fmt.Sprintf(format, args...)),
	}
}

// Capture snapshots the run at an accepted-step boundary: the trailing
// history window (deep-copied — the serial engine recycles evicted points),
// the step controller's position, the junction-limiting state, the LU
// factorization (its pivot sequence is what makes serial resume
// bit-identical), the recorded waveform (aliased — rows are immutable once
// appended), cumulative stats and the recovery log. total carries the run's
// cumulative statistics, including any segments before an earlier resume;
// warmup and scheme are the pipeline's refill depth and marker (0 for the
// single-solver engines).
func (s *Stepper) Capture(total Stats, warmup, scheme int) *checkpoint.State {
	pts := make([]*integrate.Point, s.Hist.Len())
	for i := range pts {
		p := s.Hist.At(i)
		pts[i] = &integrate.Point{T: p.T, X: num.Copy(p.X), Q: num.Copy(p.Q), Qdot: num.Copy(p.Qdot)}
	}
	sys, ws, w := s.sys, s.ps.WS, s.W
	return &checkpoint.State{
		N:          sys.N,
		NumStates:  sys.NumStates,
		NumDevices: len(sys.Circuit.Devices()),
		PatternNNZ: sys.PatternNNZ(),
		TStop:      s.opts.TStop,
		Method:     int(s.opts.Method),
		Scheme:     scheme,
		T:          s.T,
		H:          s.H,
		HUsed:      s.HUsed,
		AfterBreak: s.AfterBreak,
		Warmup:     warmup,
		Hist:       pts,
		SPrev:      num.Copy(ws.SPrev),
		SNext:      num.Copy(ws.SNext),
		LU:         ws.Solver.FactorState(),
		Stats:      snapStats(total),
		Recovery:   snapRecovery(s.RL),
		WaveNames:  w.Names,
		WaveIndex:  w.Index,
		WaveTimes:  w.Times[:len(w.Times):len(w.Times)],
		WaveData:   w.Data[:len(w.Data):len(w.Data)],
	}
}

// SalvageResult rebuilds a partial Result from a retained checkpoint
// snapshot. It is the facade's last resort when a panic (contained at the
// API boundary) kept the engine from returning its own partial result: the
// waveform, stats, recovery log and final solution of the last snapshot are
// everything that provably survived. Returns nil when st is nil or its
// waveform cannot be rebuilt.
func SalvageResult(st *checkpoint.State) *Result {
	if st == nil {
		return nil
	}
	w, err := waveform.Restore(st.WaveNames, st.WaveIndex, st.WaveTimes, st.WaveData)
	if err != nil {
		return nil
	}
	res := &Result{
		W:        w,
		Stats:    unsnapStats(st.Stats),
		Recovery: unsnapRecovery(st.Recovery),
	}
	if n := len(st.Hist); n > 0 {
		res.FinalX = num.Copy(st.Hist[n-1].X)
	}
	return res
}

// restore validates a checkpoint against the live system and run options
// and loads the state it describes into the stepper: history window,
// waveform, step position, recovery log and pre-resume totals, plus — in
// the solver's workspace — the limiting state, the LU factorization and the
// incremental-engine generation. It returns the checkpointed pipeline
// warm-up depth; every failure surfaces faults.ErrBadCheckpoint.
func (s *Stepper) restore(st *checkpoint.State) (warmup int, err error) {
	sys, ws := s.sys, s.ps.WS
	if err := st.Matches(sys.N, sys.NumStates, len(sys.Circuit.Devices()),
		sys.PatternNNZ(), s.opts.TStop, int(s.opts.Method)); err != nil {
		return 0, err
	}
	// The waveform must describe the same record set this run would build;
	// otherwise the resumed tail would append mismatched columns.
	expect := RecordSet(sys, s.opts)
	if len(expect.Index) != len(st.WaveIndex) {
		return 0, badCheckpoint("record set mismatch: %d signals, checkpoint has %d",
			len(expect.Index), len(st.WaveIndex))
	}
	for i, idx := range expect.Index {
		if st.WaveIndex[i] != idx {
			return 0, badCheckpoint("record set mismatch at signal %d", i)
		}
	}
	hist, err := integrate.RestoreHistory(st.Hist)
	if err != nil {
		return 0, badCheckpoint("%v", err)
	}
	last := hist.Last()
	if last == nil || last.T != st.T {
		return 0, badCheckpoint("history does not end at checkpoint time %g", st.T)
	}
	w, err := waveform.Restore(st.WaveNames, st.WaveIndex, st.WaveTimes, st.WaveData)
	if err != nil {
		return 0, badCheckpoint("%v", err)
	}
	if n := w.Len(); n == 0 || w.Times[n-1] != st.T {
		return 0, badCheckpoint("waveform does not end at checkpoint time %g", st.T)
	}
	if st.H <= 0 {
		return 0, badCheckpoint("non-positive step %g", st.H)
	}
	copy(ws.SPrev, st.SPrev)
	copy(ws.SNext, st.SNext)
	if st.LU != nil {
		if err := ws.Solver.RestoreFactor(st.LU); err != nil {
			return 0, badCheckpoint("%v", err)
		}
	}
	s.Hist, s.W = hist, w
	s.RL, s.Base = unsnapRecovery(st.Recovery), unsnapStats(st.Stats)
	s.T, s.HUsed, s.AfterBreak = st.T, st.HUsed, st.AfterBreak
	s.SetStep(st.H)
	return st.Warmup, nil
}
