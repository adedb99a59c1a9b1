// Package checkpoint makes transient runs durable: periodic, versioned
// snapshots of complete engine state taken at accepted-step boundaries — the
// only safe suspension points WavePipe's accept/discard semantics define —
// plus the wall-clock guard rails (deadline timer, stall watchdog) a
// simulation service needs to preempt and migrate runs.
//
// A State captures everything the serial engine needs to continue exactly
// where it stopped: the trailing integrate.History window, the step
// controller's position (h, hUsed, afterBreak), the junction-limiting state,
// the recorded waveform, accumulated statistics, the recovery log, the
// incremental-assembly generation counter, and — crucially for bit-identity —
// the sparse LU factorization (pivot sequence, patterns, values), so the
// first post-resume factorization takes the same Refactor path as the
// uninterrupted run. The encoding is deterministic (fixed field order,
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

// Format versioning.
const (
	// Version is the current checkpoint format version.
	Version = 1
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
	Scheme int // informational: facade scheme that wrote the snapshot

	// Engine position.
	T          float64 // time of the last accepted point
	H          float64 // next step size the controller chose
	HUsed      float64 // size of the last accepted step
	AfterBreak bool    // first step after a breakpoint restart
	Warmup     int     // pipeline serial-warmup stages remaining (0 for serial)

	// Engine state proper.
	Hist  []*integrate.Point // trailing window, ascending, deep-copied
	SPrev []float64          // junction limiting state: previous iterate
	SNext []float64          // junction limiting state: current iterate
	LU    *sparse.LUState    // last factorization (nil if none yet)

	Stats    Stats
	Recovery []RecoveryEvent

	// Recorded waveform up to T.
	WaveNames []string
	WaveIndex []int
	WaveTimes []float64
	WaveData  [][]float64
}

// Stats mirrors transient.Stats with fixed-width fields so the encoding is
// platform-independent. The transient package converts in both directions
// (it imports checkpoint, so checkpoint cannot name its type).
type Stats struct {
	Points             int64
	Solves             int64
	NRIters            int64
	LTERejects         int64
	NRFailures         int64
	Discarded          int64
	OpIters            int64
	Stages             int64
	Recoveries         int64
	WorkerPanics       int64
	DegradedStages     int64
	Refactorizations   int64
	FullFactorizations int64
	LinearStampHits    int64
	CriticalNanos      int64
	CoreBudget         int64
	PipelineWorkers    int64
	IntraWorkers       int64
	PipelineSerialized bool
}

// RecoveryEvent mirrors transient.RecoveryEvent (same import-direction
// reason as Stats).
type RecoveryEvent struct {
	T      float64
	Kind   string
	Detail string
}

// bad wraps a checkpoint-format complaint in the typed error chain every
// decode/validation failure surfaces: a faults.SimError whose cause reaches
// faults.ErrBadCheckpoint.
func bad(format string, args ...any) error {
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
		return bad("circuit mismatch: %d unknowns, checkpoint has %d", n, s.N)
	case s.NumStates != numStates:
		return bad("circuit mismatch: %d state slots, checkpoint has %d", numStates, s.NumStates)
	case s.NumDevices != numDevices:
		return bad("circuit mismatch: %d devices, checkpoint has %d", numDevices, s.NumDevices)
	case s.PatternNNZ != patternNNZ:
		return bad("circuit mismatch: %d pattern nonzeros, checkpoint has %d", patternNNZ, s.PatternNNZ)
	case s.TStop != tstop:
		return bad("run mismatch: tstop %g, checkpoint has %g", tstop, s.TStop)
	case s.Method != method:
		return bad("run mismatch: method %d, checkpoint has %d", method, s.Method)
	case len(s.Hist) == 0:
		return bad("empty history")
	}
	return nil
}
