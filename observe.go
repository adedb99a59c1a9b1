package wavepipe

// Observability facade: the internal/trace event-stream API re-exported for
// library users. Attach an Observer through TranOptions.Observer; with none
// attached the engines' hot path stays allocation- and clock-read-free.
//
//	rec := wavepipe.NewTraceRecorder(0) // unbounded: keep every event
//	res, err := wavepipe.RunTransientCtx(ctx, sys, wavepipe.TranOptions{
//		TStop: 1e-3, Scheme: wavepipe.Combined, Observer: rec,
//	})
//	wavepipe.WriteChromeTrace(f, rec.Events(), rec.Snapshots())
//
// A recorded stream reconciles exactly with the run's Stats: ReplayTrace's
// Points/Solves/NRIters/LTERejects/Discarded/Recoveries equal the fields of
// the same name in Result.Stats.

import (
	"io"

	"wavepipe/internal/trace"
)

type (
	// Observer receives the structured run telemetry: one OnEvent call per
	// trace event, one OnSnapshot per periodic metrics sample. Callbacks are
	// synchronous and may come from any engine goroutine.
	Observer = trace.Observer
	// TraceEvent is one structured record of the run's event stream.
	TraceEvent = trace.Event
	// TraceSnapshot is one periodic metrics sample.
	TraceSnapshot = trace.Snapshot
	// TraceKind classifies a TraceEvent.
	TraceKind = trace.Kind
	// TracePhase identifies the solve sub-phase a timing event measured.
	TracePhase = trace.Phase
	// TraceRecorder is an in-memory Observer (bounded ring or unbounded).
	TraceRecorder = trace.Recorder
	// TraceMetrics is a live-counters Observer servable over HTTP.
	TraceMetrics = trace.Metrics
	// TraceReplayCounts are the Stats-reconcilable counters ReplayTrace
	// recomputes from a recorded stream.
	TraceReplayCounts = trace.ReplayCounts
)

// Trace event kinds.
const (
	TraceKindPredict        = trace.KindPredict        // speculative warm-start work
	TraceKindSolve          = trace.KindSolve          // one Newton point solve
	TraceKindAccept         = trace.KindAccept         // point entered the waveform
	TraceKindLTEReject      = trace.KindLTEReject      // truncation-error rejection
	TraceKindDiscard        = trace.KindDiscard        // speculative point thrown away
	TraceKindRecovery       = trace.KindRecovery       // recovery-ladder rescue
	TraceKindSerialFallback = trace.KindSerialFallback // pipeline degraded to serial
	TraceKindPhase          = trace.KindPhase          // timed solve sub-phase
	TraceKindWorker         = trace.KindWorker         // worker occupancy span
	TraceKindCancel         = trace.KindCancel         // context cancellation observed
	TraceKindCheckpoint     = trace.KindCheckpoint     // durable checkpoint written
)

// Solve sub-phases of TraceKindPhase events.
const (
	TracePhaseDeviceLoad = trace.PhaseDeviceLoad
	TracePhaseFactor     = trace.PhaseFactor
	TracePhaseTriSolve   = trace.PhaseTriSolve
	TracePhaseLTE        = trace.PhaseLTE
)

// Trace event flag bits.
const (
	TraceFlagFailed  = trace.FlagFailed  // the solve attempt errored
	TraceFlagResumed = trace.FlagResumed // solve warm-started from speculation
	TraceFlagReused  = trace.FlagReused  // factorization answered exactly by a held LU
)

// NewTraceRecorder returns an in-memory observer. capacity > 0 bounds the
// event ring to that many newest events (an always-on flight recorder);
// capacity == 0 keeps every event (full post-run export); capacity < 0
// selects the default ring size (65536).
func NewTraceRecorder(capacity int) *TraceRecorder { return trace.NewRecorder(capacity) }

// NewTraceMetrics returns a live-metrics observer. Its Handler method serves
// Prometheus text at /metrics and expvar-style JSON elsewhere.
func NewTraceMetrics() *TraceMetrics { return trace.NewMetrics() }

// MultiObserver fans the telemetry out to several observers (nils skipped).
func MultiObserver(obs ...Observer) Observer { return trace.Multi(obs...) }

// WriteTraceJSONL renders events and snapshots as one JSON object per line,
// merged in emission order.
func WriteTraceJSONL(w io.Writer, events []TraceEvent, snaps []TraceSnapshot) error {
	return trace.WriteJSONL(w, events, snaps)
}

// ReadTraceJSONL parses a stream produced by WriteTraceJSONL.
func ReadTraceJSONL(r io.Reader) ([]TraceEvent, []TraceSnapshot, error) {
	return trace.ReadJSONL(r)
}

// WriteChromeTrace renders events and snapshots as Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto for flame-view inspection of the
// pipeline stages.
func WriteChromeTrace(w io.Writer, events []TraceEvent, snaps []TraceSnapshot) error {
	return trace.WriteChromeTrace(w, events, snaps)
}

// ReplayTrace recomputes the run counters from a recorded event stream. On a
// complete (undropped) trace they reconcile exactly with Result.Stats.
func ReplayTrace(events []TraceEvent) TraceReplayCounts { return trace.Replay(events) }
