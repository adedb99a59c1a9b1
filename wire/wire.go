// Package wire defines the versioned JSON schema shared by every wavepipe
// serialization surface: the wavesimd HTTP API, the wavepipe/client HTTP
// client, and wavesim's -json output all speak these types, so a result
// written by one tool is readable by the others. Waveform rows also cross as
// binary frames (frame.go), which the Go client always asks for.
//
// Every top-level document carries a schemaVersion field and decoding
// rejects both unknown fields and version mismatches — a client from the
// future fails loudly instead of silently dropping options it meant to set.
// Enumerations travel as their stable string names (Scheme.String,
// Method.String) and durations as Go duration strings, so
// documents stay readable and diffable.
package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"wavepipe"
)

// SchemaVersion is the version stamped into and required of every
// top-level wire document.
const SchemaVersion = 1

// TranOptions is the wire form of wavepipe.TranOptions. Process-local
// fields (Observer, Faults, OnAccept) and service-managed durability fields
// (CheckpointPath, CheckpointEvery, ResumeFrom) have no wire form: the
// first cannot cross a process boundary, the second are owned by whichever
// process runs the simulation.
type TranOptions struct {
	TStop         float64            `json:"tstop,omitempty"`
	Scheme        string             `json:"scheme,omitempty"`
	Threads       int                `json:"threads,omitempty"`
	Method        string             `json:"method,omitempty"`
	RelTol        float64            `json:"reltol,omitempty"`
	AbsTol        float64            `json:"abstol,omitempty"`
	MaxStep       float64            `json:"maxStep,omitempty"`
	InitStep      float64            `json:"initStep,omitempty"`
	UIC           bool               `json:"uic,omitempty"`
	IC            map[string]float64 `json:"ic,omitempty"`
	NodeSet       map[string]float64 `json:"nodeset,omitempty"`
	Record        []string           `json:"record,omitempty"`
	CoreBudget    int                `json:"coreBudget,omitempty"`
	SnapshotEvery int                `json:"snapshotEvery,omitempty"`
	Deadline      string             `json:"deadline,omitempty"`
	StallFactor   float64            `json:"stallFactor,omitempty"`
	// Time-parallel (Parareal) window configuration. Additive since
	// schemaVersion 1: absent fields mean no windowing, so documents from
	// older peers decode unchanged.
	Windows        int     `json:"windows,omitempty"`
	CoarseSteps    int     `json:"coarseSteps,omitempty"`
	CoarseTolScale float64 `json:"coarseTolScale,omitempty"`
	WindowGate     float64 `json:"windowGate,omitempty"`
	WindowStrict   bool    `json:"windowStrict,omitempty"`
	// Parasitic-reduction configuration. Additive since schemaVersion 1:
	// absent fields mean no reduction, so documents from older peers decode
	// unchanged.
	Reduce     bool     `json:"reduce,omitempty"`
	ReduceTol  float64  `json:"reduceTol,omitempty"`
	ReduceKeep []string `json:"reduceKeep,omitempty"`
}

// FromTranOptions converts facade options to their wire form.
func FromTranOptions(o wavepipe.TranOptions) TranOptions {
	w := TranOptions{
		TStop:          o.TStop,
		Threads:        o.Threads,
		RelTol:         o.RelTol,
		AbsTol:         o.AbsTol,
		MaxStep:        o.MaxStep,
		InitStep:       o.InitStep,
		UIC:            o.UIC,
		IC:             o.IC,
		NodeSet:        o.NodeSet,
		Record:         o.Record,
		CoreBudget:     o.CoreBudget,
		SnapshotEvery:  o.SnapshotEvery,
		StallFactor:    o.StallFactor,
		Windows:        o.Windows,
		CoarseSteps:    o.CoarseOpts.Steps,
		CoarseTolScale: o.CoarseOpts.TolScale,
		WindowGate:     o.CoarseOpts.Gate,
		WindowStrict:   o.CoarseOpts.Strict,
		Reduce:         o.Reduce,
		ReduceTol:      o.ReduceTol,
		ReduceKeep:     o.ReduceKeep,
	}
	if o.Scheme != wavepipe.Serial {
		w.Scheme = o.Scheme.String()
	}
	if o.Method != wavepipe.Gear2 {
		w.Method = o.Method.String()
	}
	if o.Deadline > 0 {
		w.Deadline = o.Deadline.String()
	}
	return w
}

// ToTranOptions converts wire options back to facade options, resolving the
// enumeration names and the deadline duration.
func (w TranOptions) ToTranOptions() (wavepipe.TranOptions, error) {
	o := wavepipe.TranOptions{
		TStop:         w.TStop,
		Threads:       w.Threads,
		RelTol:        w.RelTol,
		AbsTol:        w.AbsTol,
		MaxStep:       w.MaxStep,
		InitStep:      w.InitStep,
		UIC:           w.UIC,
		IC:            w.IC,
		NodeSet:       w.NodeSet,
		Record:        w.Record,
		CoreBudget:    w.CoreBudget,
		SnapshotEvery: w.SnapshotEvery,
		StallFactor:   w.StallFactor,
		Windows:       w.Windows,
		Reduce:        w.Reduce,
		ReduceTol:     w.ReduceTol,
		ReduceKeep:    w.ReduceKeep,
		CoarseOpts: wavepipe.CoarseOptions{
			Steps:    w.CoarseSteps,
			TolScale: w.CoarseTolScale,
			Gate:     w.WindowGate,
			Strict:   w.WindowStrict,
		},
	}
	var err error
	if o.Scheme, err = wavepipe.ParseScheme(w.Scheme); err != nil {
		return o, err
	}
	if o.Method, err = wavepipe.ParseMethod(w.Method); err != nil {
		return o, err
	}
	if w.Deadline != "" {
		d, perr := time.ParseDuration(w.Deadline)
		if perr != nil {
			return o, fmt.Errorf("wire: bad deadline %q: %w", w.Deadline, perr)
		}
		o.Deadline = d
	}
	return o, nil
}

// JobRequest is the POST /v1/jobs body: a deck (SPICE netlist source) plus
// optional analysis options, priority and label.
type JobRequest struct {
	SchemaVersion int          `json:"schemaVersion"`
	Deck          string       `json:"deck"`
	Options       *TranOptions `json:"options,omitempty"`
	Priority      int          `json:"priority,omitempty"`
	Label         string       `json:"label,omitempty"`
}

// JobStatus is the wire form of a job snapshot (returned by POST /v1/jobs
// and GET /v1/jobs/{id}).
type JobStatus struct {
	SchemaVersion int `json:"schemaVersion"`
	wavepipe.JobStatus
}

// Result is the wire form of a finished run: the recorded waveforms, the
// run statistics and the final solution vector. The in-process recovery log
// does not travel — it is diagnostic detail for local callers.
type Result struct {
	SchemaVersion int            `json:"schemaVersion"`
	Signals       []string       `json:"signals"`
	Index         []int          `json:"index"`
	Times         []float64      `json:"times"`
	Data          [][]float64    `json:"data"`
	Stats         wavepipe.Stats `json:"stats"`
	FinalX        []float64      `json:"finalX,omitempty"`
	// Err carries the typed simulation error message of a failed run whose
	// partial result was still worth returning.
	Err string `json:"error,omitempty"`
}

// FromResult converts a run result to its wire form. A nil result maps to
// nil.
func FromResult(r *wavepipe.Result) *Result {
	if r == nil {
		return nil
	}
	out := &Result{
		SchemaVersion: SchemaVersion,
		Stats:         r.Stats,
		FinalX:        r.FinalX,
	}
	if r.W != nil {
		out.Signals = r.W.Names
		out.Index = r.W.Index
		out.Times = r.W.Times
		out.Data = r.W.Data
	}
	return out
}

// ToResult converts a wire result back to the facade type, validating the
// waveform shape invariants (matching lengths, row width, ascending times).
func (w *Result) ToResult() (*wavepipe.Result, error) {
	if w == nil {
		return nil, nil
	}
	if len(w.Times) != len(w.Data) {
		return nil, fmt.Errorf("wire: %d times vs %d rows", len(w.Times), len(w.Data))
	}
	for k, row := range w.Data {
		if len(row) != len(w.Signals) {
			return nil, fmt.Errorf("wire: row %d has %d values, want %d", k, len(row), len(w.Signals))
		}
		if k > 0 && w.Times[k] <= w.Times[k-1] {
			return nil, fmt.Errorf("wire: times not ascending at sample %d", k)
		}
	}
	index := w.Index
	if index == nil {
		index = make([]int, len(w.Signals))
		for i := range index {
			index[i] = i
		}
	}
	if len(index) != len(w.Signals) {
		return nil, fmt.Errorf("wire: %d indices vs %d signals", len(index), len(w.Signals))
	}
	return &wavepipe.Result{
		W: &wavepipe.Set{
			Names: w.Signals,
			Index: index,
			Times: w.Times,
			Data:  w.Data,
		},
		Stats:  w.Stats,
		FinalX: w.FinalX,
	}, nil
}

// Error is the uniform error body every wavesimd endpoint returns on
// failure.
type Error struct {
	SchemaVersion int    `json:"schemaVersion"`
	Error         string `json:"error"`
}

// StreamHeader is the first line of a GET /v1/jobs/{id}/stream response.
// What follows are rows whose values align with Signals: one
// wavepipe.StreamPoint JSON line per row (NDJSON), or, for a request that
// accepts FrameContentType, stream frames (ReadStreamFrame).
type StreamHeader struct {
	SchemaVersion int      `json:"schemaVersion"`
	Signals       []string `json:"signals"`
}

// DecodeStreamHeader parses and version-checks a stream's header line.
func DecodeStreamHeader(line []byte) (*StreamHeader, error) {
	var h StreamHeader
	if err := json.Unmarshal(line, &h); err != nil {
		return nil, fmt.Errorf("wire: stream header: %w", err)
	}
	if err := checkVersion(h.SchemaVersion); err != nil {
		return nil, err
	}
	return &h, nil
}

// DecodeError extracts the error message from an error body; it returns ""
// when the body is not a wire error document.
func DecodeError(body []byte) string {
	var e Error
	if json.Unmarshal(body, &e) != nil {
		return ""
	}
	return e.Error
}

// Encode writes v as a single JSON document.
func Encode(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	return enc.Encode(v)
}

// decodeStrict decodes exactly one JSON document, rejecting unknown fields.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	return nil
}

// checkVersion rejects any schema version other than the one this build
// speaks.
func checkVersion(v int) error {
	if v != SchemaVersion {
		return fmt.Errorf("wire: schemaVersion %d not supported (want %d)", v, SchemaVersion)
	}
	return nil
}

// DecodeJobRequest reads and validates a POST /v1/jobs body.
func DecodeJobRequest(r io.Reader) (*JobRequest, error) {
	var q JobRequest
	if err := decodeStrict(r, &q); err != nil {
		return nil, err
	}
	if err := checkVersion(q.SchemaVersion); err != nil {
		return nil, err
	}
	return &q, nil
}

// DecodeJobStatus reads and validates a job-status document.
func DecodeJobStatus(r io.Reader) (*JobStatus, error) {
	var q JobStatus
	if err := decodeStrict(r, &q); err != nil {
		return nil, err
	}
	if err := checkVersion(q.SchemaVersion); err != nil {
		return nil, err
	}
	return &q, nil
}

// DecodeResult reads and validates a result document.
func DecodeResult(r io.Reader) (*Result, error) {
	var q Result
	if err := decodeStrict(r, &q); err != nil {
		return nil, err
	}
	if err := checkVersion(q.SchemaVersion); err != nil {
		return nil, err
	}
	return &q, nil
}
