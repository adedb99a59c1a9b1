package transient

import (
	"slices"

	"wavepipe/internal/checkpoint"
	"wavepipe/internal/integrate"
	"wavepipe/internal/num"
	"wavepipe/internal/waveform"
)

// Durable-run plumbing: converting between the engine's native state and
// checkpoint.State. The checkpoint package cannot import transient (the
// dependency points the other way), so the stats cross as the counter vector
// Stats.counters defines, and RecoveryEvent is checkpoint's own type.

// Capture snapshots the run at an accepted-step boundary: the trailing
// history window (deep-copied — the serial engine recycles evicted points),
// the step controller's position, the junction-limiting state, the LU
// factorization (its pivot sequence is what makes serial resume
// bit-identical), the recorded waveform (aliased — rows are immutable once
// appended), cumulative stats and the recovery log. total carries the run's
// cumulative statistics, including any segments before an earlier resume.
func (s *Stepper) Capture(total Stats) *checkpoint.State {
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
		T:          s.T,
		H:          s.H,
		HUsed:      s.HUsed,
		AfterBreak: s.AfterBreak,
		Hist:       pts,
		SPrev:      num.Copy(ws.SPrev),
		SNext:      num.Copy(ws.SNext),
		LU:         ws.Solver.FactorState(),
		Stats:      total.counterVector(),
		Recovery:   s.RL.Events(),
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
		Stats:    statsFrom(st.Stats),
		Recovery: &RecoveryLog{events: slices.Clip(st.Recovery)},
	}
	if n := len(st.Hist); n > 0 {
		res.FinalX = num.Copy(st.Hist[n-1].X)
	}
	return res
}

// restore validates a checkpoint against the live system and run options
// and loads the state it describes into the stepper: history window,
// waveform, step position, recovery log and pre-resume totals, plus — in
// the solver's workspace — the limiting state and the LU factorization.
// Every failure surfaces faults.ErrBadCheckpoint.
func (s *Stepper) restore(st *checkpoint.State) error {
	sys, ws := s.sys, s.ps.WS
	if err := st.Matches(sys.N, sys.NumStates, len(sys.Circuit.Devices()),
		sys.PatternNNZ(), s.opts.TStop, int(s.opts.Method)); err != nil {
		return err
	}
	// The waveform must describe the same record set this run would build;
	// otherwise the resumed tail would append mismatched columns.
	if expect := RecordSet(sys, s.opts); !slices.Equal(expect.Index, st.WaveIndex) {
		return checkpoint.Bad("record set mismatch: %d signals, checkpoint has %d",
			len(expect.Index), len(st.WaveIndex))
	}
	hist, err := integrate.RestoreHistory(st.Hist)
	if err != nil {
		return checkpoint.Bad("%v", err)
	}
	last := hist.Last()
	if last == nil || last.T != st.T {
		return checkpoint.Bad("history does not end at checkpoint time %g", st.T)
	}
	w, err := waveform.Restore(st.WaveNames, st.WaveIndex, st.WaveTimes, st.WaveData)
	if err != nil {
		return checkpoint.Bad("%v", err)
	}
	if n := w.Len(); n == 0 || w.Times[n-1] != st.T {
		return checkpoint.Bad("waveform does not end at checkpoint time %g", st.T)
	}
	if st.H <= 0 {
		return checkpoint.Bad("non-positive step %g", st.H)
	}
	copy(ws.SPrev, st.SPrev)
	copy(ws.SNext, st.SNext)
	if st.LU != nil {
		if err := ws.Solver.RestoreFactor(st.LU); err != nil {
			return checkpoint.Bad("%v", err)
		}
	}
	s.Hist, s.W = hist, w
	// The log shares the checkpoint's events, clipped so that its next Note
	// copies them rather than writing past them.
	s.RL, s.Base = &RecoveryLog{events: slices.Clip(st.Recovery)}, statsFrom(st.Stats)
	s.T, s.HUsed, s.AfterBreak = st.T, st.HUsed, st.AfterBreak
	s.SetStep(st.H)
	return nil
}
