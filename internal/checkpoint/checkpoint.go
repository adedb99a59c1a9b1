// Package checkpoint makes transient runs durable: periodic, versioned
// snapshots of complete engine state taken at accepted-step boundaries — the
// only safe suspension points WavePipe's accept/discard semantics define —
// plus the stall watchdog a simulation service needs to preempt and
// migrate runs.
//
// A State captures everything the serial engine needs to continue exactly
// where it stopped: the trailing integrate.History window, the step
// controller's position (h, hUsed, afterBreak), the junction-limiting state,
// the recorded waveform, the run's counters, the recovery log, and —
// crucially for bit-identity — the sparse LU factorization (pivot sequence,
// patterns, values), so the first post-resume factorization takes the same
// Refactor path as the uninterrupted run. The encoding is deterministic (fixed field order,
// little-endian, no maps) and guarded by a CRC, a version number and
// bounds-checked lengths: truncated, corrupted or wrong-version files decode
// to a typed faults error, never a panic or silent garbage.
//
// The Controller is the run's guard: it owns the first-wins abort flag the
// Newton loop and the engines poll, runs the watchdog goroutine, decides
// when a periodic snapshot is due, and persists snapshots atomically
// (write-to-temp, rename), so even kill -9 mid-write leaves the previous
// checkpoint intact. Periodic saves skip the fsync — atomic rename already
// survives process death, and the full fsync dance is paid once, by the
// final flush on the way out (SaveFinal), where latency no longer matters.
package checkpoint

import (
	"fmt"

	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/sparse"
)

const (
	// Version is the current checkpoint format version; Decode refuses any
	// other.
	Version = 4
	// Counters is the length of State.Stats: one slot per counter of
	// transient.Stats, in the order its counter list gives them (transient
	// returns that list as a [Counters] array, so the two cannot disagree).
	Counters = 24
)

// magic identifies a WavePipe checkpoint file.
var magic = [4]byte{'W', 'P', 'C', 'P'}

// State is one complete, resumable snapshot of a transient run at an
// accepted-step boundary.
type State struct {
	// Circuit fingerprint, validated on resume so a checkpoint can never be
	// applied to a different circuit.
	N          int // MNA unknowns
	NumStates  int // device limiting-state slots
	NumDevices int
	PatternNNZ int // structural nonzeros of the MNA pattern

	// Run identity.
	TStop  float64
	Method int // integrate.Method the run was started with

	// Engine position.
	T          float64 // time of the last accepted point
	H          float64 // next step size the controller chose
	HUsed      float64 // size of the last accepted step
	AfterBreak bool    // first step after a breakpoint restart

	// Engine state proper.
	Hist  []*integrate.Point // trailing window, ascending, deep-copied
	SPrev []float64          // junction limiting state: previous iterate
	SNext []float64          // junction limiting state: current iterate
	LU    *sparse.LUState    // last factorization (nil if none yet)

	// Stats is the run's cumulative transient.Stats, including the segments
	// before an earlier resume, as its Counters-long counter vector.
	Stats    []int64
	Recovery []RecoveryEvent

	// Recorded waveform up to T.
	WaveNames []string
	WaveIndex []int
	WaveTimes []float64
	WaveData  [][]float64
}

// RecoveryEvent records one robustness action taken during a run (a
// recovery-ladder rung that rescued a point, a pipeline falling back to
// serial integration). It is declared here, beside the state that carries
// it across a suspension point; transient and the facade alias it.
type RecoveryEvent struct {
	T      float64 // simulation time the solver was stuck at
	Kind   string  // one of transient's Recovery* kinds
	Detail string
}

// Bad wraps a checkpoint complaint in the typed error chain every decode,
// validation and resume failure surfaces: a faults.SimError whose cause
// reaches faults.ErrBadCheckpoint.
func Bad(format string, args ...any) error {
	return &faults.SimError{
		Phase: "checkpoint",
		Node:  -1,
		Cause: fmt.Errorf("%w: %s", faults.ErrBadCheckpoint, fmt.Sprintf(format, args...)),
	}
}

// Matches validates the snapshot against the live circuit and run options.
// A mismatch means the checkpoint belongs to a different circuit or an
// incompatibly configured run and resuming would compute garbage.
func (s *State) Matches(n, numStates, numDevices, patternNNZ int, tstop float64, method int) error {
	switch {
	case s.N != n:
		return Bad("circuit mismatch: %d unknowns, checkpoint has %d", n, s.N)
	case s.NumStates != numStates:
		return Bad("circuit mismatch: %d state slots, checkpoint has %d", numStates, s.NumStates)
	case s.NumDevices != numDevices:
		return Bad("circuit mismatch: %d devices, checkpoint has %d", numDevices, s.NumDevices)
	case s.PatternNNZ != patternNNZ:
		return Bad("circuit mismatch: %d pattern nonzeros, checkpoint has %d", patternNNZ, s.PatternNNZ)
	case s.TStop != tstop:
		return Bad("run mismatch: tstop %g, checkpoint has %g", tstop, s.TStop)
	case s.Method != method:
		return Bad("run mismatch: method %d, checkpoint has %d", method, s.Method)
	case len(s.Stats) != Counters:
		return Bad("%d counters, want %d", len(s.Stats), Counters)
	case len(s.Hist) == 0:
		return Bad("empty history")
	}
	return nil
}
