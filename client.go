package wavepipe

import (
	"context"
	"time"
)

// JobState enumerates the lifecycle of a submitted simulation job.
type JobState string

// Job lifecycle states. A job is terminal in JobDone, JobFailed and
// JobCanceled; JobPreempted is transient — the job yielded its cores to a
// higher-priority run at an accepted step and is queued to continue from it.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobPreempted JobState = "preempted"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCanceled  JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// JobSpec describes one simulation to submit through a Client.
type JobSpec struct {
	// Deck is the SPICE netlist source (required). Decks are compiled
	// through the service's artifact cache: an equivalent netlist submitted
	// before skips the symbolic analysis entirely.
	Deck string
	// Options configures the analysis. Deck cards fill unset fields
	// (Deck.ApplyTo precedence). The scheduling and durability fields are
	// owned by the service: the scheme's stage width (two points for
	// Backward and Forward), capped by CoreBudget, sizes the core request —
	// a Serial job asks for one core — and the result
	// does not depend on what was granted, while CheckpointPath,
	// ResumeFrom, OnAccept and Observer must be zero: the service keeps a
	// job's state across preemption in memory and installs its own stream
	// and observer.
	Options TranOptions
	// Deadline bounds the job's wall-clock life from Submit: queueing, every
	// attempt and every preempted wait draw on the one budget. A job past
	// it ends JobFailed with ErrDeadlineExceeded and the partial Result of
	// its last accepted step. 0 means none; negative is refused.
	Deadline time.Duration
	// Priority orders the global queue: higher runs first, and a strictly
	// higher-priority job may preempt a running lower-priority one at its
	// next accepted-step boundary (it continues from there later).
	Priority int
	// Label is an optional caller tag echoed in JobStatus.
	Label string
}

// JobStatus is a point-in-time snapshot of a submitted job.
type JobStatus struct {
	ID       string   `json:"id"`
	Label    string   `json:"label,omitempty"`
	State    JobState `json:"state"`
	Priority int      `json:"priority"`
	// Cores is the current grant from the global arbiter (0 unless running).
	Cores int `json:"cores"`
	// Resumes counts the preemptions the job was resumed from.
	Resumes int `json:"resumes"`
	// CacheHit reports whether the deck's compiled artifacts (System build,
	// fill ordering) were reused from the cache.
	CacheHit bool `json:"cacheHit"`
	// Signals are the waveform column names the job records (for a Reduce
	// job recording every node, the original node names, as in its Result).
	Signals []string `json:"signals,omitempty"`
	// Points is the number of accepted time points so far.
	Points int `json:"points"`
	// Err is the terminal error message (JobFailed / JobCanceled).
	Err string `json:"error,omitempty"`
}

// StreamPoint is one accepted time point delivered on a Stream channel:
// the values align with JobStatus.Signals.
type StreamPoint struct {
	T      float64   `json:"t"`
	Values []float64 `json:"values"`
}

// Client is the unified simulation surface: the in-process Service and the
// HTTP client (package wavepipe/client) both implement it, so callers
// switch local↔remote without code changes.
//
// Submit enqueues a job and returns immediately with its status (including
// the assigned ID and whether the compiled-artifact cache hit). Status
// snapshots a job. Wait blocks until the job is terminal and returns its
// Result — for failed jobs the partial Result (when any) alongside the
// typed simulation error; Wait may be called by any number of goroutines.
// Stream returns a channel that replays every accepted point from t=0 and
// then follows the live run; it is closed when the job ends or ctx is done.
// Cancel stops a job (idempotent; terminal jobs are unaffected). Close
// releases the client; for the in-process Service it cancels every live job
// and waits for them to unwind.
type Client interface {
	Submit(ctx context.Context, spec JobSpec) (JobStatus, error)
	Status(ctx context.Context, id string) (JobStatus, error)
	Wait(ctx context.Context, id string) (*Result, error)
	Stream(ctx context.Context, id string) (<-chan StreamPoint, error)
	Cancel(ctx context.Context, id string) error
	Close() error
}
