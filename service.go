package wavepipe

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"wavepipe/internal/artifact"
	"wavepipe/internal/checkpoint"
	"wavepipe/internal/sched"
	"wavepipe/internal/trace"
	"wavepipe/internal/transient"
)

// ErrUnknownJob is returned by Status/Wait/Stream/Cancel for an ID the
// service never issued.
var ErrUnknownJob = errors.New("wavepipe: unknown job")

// ErrQueueFull is returned by Submit when the service's admission control
// rejects a job because the wait queue is at capacity. Retry later; the
// HTTP layer maps it to 429.
var ErrQueueFull = errors.New("wavepipe: admission queue full")

// ErrJobUnsupported is returned by Submit for options that are valid for a
// direct RunTransientCtx call but that the service cannot run as a job —
// today Windows > 1: the arbiter may preempt any job, which then continues
// from the engine state of its last accepted step, and a time-parallel run
// has no single engine state to hand back. The job is refused up front,
// never admitted; the HTTP layer maps it to 422.
var ErrJobUnsupported = errors.New("wavepipe: job options not supported by the service")

// ServiceConfig sizes an in-process simulation service.
type ServiceConfig struct {
	// Cores is the global core budget every concurrent job draws grants
	// from (default: GOMAXPROCS). The sum of all running jobs' core grants
	// never exceeds it.
	Cores int
	// MaxQueued bounds the admission queue (default 64); beyond it Submit
	// fails fast with ErrQueueFull.
	MaxQueued int
	// CacheSize bounds the compiled-artifact cache in decks (default 16).
	CacheSize int
	// Dir receives the per-job JSONL traces of TraceJobs; the service writes
	// nothing else into it. A named Dir is created at start and left to the
	// caller; empty means a temporary directory, made only with TraceJobs
	// and removed on Close.
	Dir string
	// TraceJobs writes each job's structured telemetry to Dir/<id>.trace.jsonl
	// when the job ends. Without it the service touches no file.
	TraceJobs bool
}

// Service runs simulations as jobs inside this process: a global
// multi-tenant arbiter multiplexes every submission over one core budget
// (priorities, fair share, preemption at accepted-step boundaries — a
// preempted job keeps the engine state of its last accepted step in memory
// and the next grant continues from it), and a compiled-artifact cache hands
// repeat decks their System build and fill ordering without re-running
// symbolic analysis. Service implements Client; cmd/wavesimd
// serves the same object over HTTP.
type Service struct {
	cfg     ServiceConfig
	arb     *sched.Arbiter
	cache   *artifact.Cache
	metrics *trace.Metrics
	dir     string
	ownDir  bool

	mu     sync.Mutex
	jobs   map[string]*job
	seq    int
	closed bool
	wg     sync.WaitGroup

	submitted atomic.Int64
	finished  atomic.Int64
	rejected  atomic.Int64
}

// job is the service-side state of one submission.
type job struct {
	id     string
	spec   JobSpec
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	state    JobState
	cores    int
	resumes  int
	cacheHit bool
	signals  []string
	rows     []StreamPoint
	update   chan struct{} // closed and replaced on every state/row change
	res      *Result
	err      error
	canceled bool // user asked; distinguishes cancel from preemption
}

// NewService starts an in-process simulation service.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = runtime.GOMAXPROCS(0)
	}
	// The service writes nothing but the traces of TraceJobs, so a directory
	// of its own is made only for them; a named Dir is the caller's.
	dir, ownDir := cfg.Dir, false
	var err error
	switch {
	case dir != "":
		err = os.MkdirAll(dir, 0o755)
	case cfg.TraceJobs:
		dir, err = os.MkdirTemp("", "wavesimd-*")
		ownDir = true
	}
	if err != nil {
		return nil, fmt.Errorf("wavepipe: service dir: %w", err)
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 64
	}
	return &Service{
		cfg: cfg,
		// Admission is enforced at Submit (below), where it can fail fast
		// and count only new jobs, so a preempted job's re-acquire — already
		// admitted work — is never bounced.
		arb:     sched.NewArbiter(cfg.Cores),
		cache:   artifact.New(cfg.CacheSize),
		metrics: trace.NewMetrics(),
		dir:     dir,
		ownDir:  ownDir,
		jobs:    make(map[string]*job),
	}, nil
}

// Metrics returns the service-wide engine telemetry aggregate (the same
// counters the /metrics endpoint exposes).
func (s *Service) Metrics() *TraceMetrics { return s.metrics }

// Submit compiles the deck (through the artifact cache), merges its cards
// into the options, and enqueues the job with the global arbiter. It
// returns as soon as the job is queued; the returned status carries the
// job ID and whether the compiled artifacts were reused.
func (s *Service) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	if spec.Deck == "" {
		return JobStatus{}, fmt.Errorf("wavepipe: Submit: empty deck")
	}
	if err := managedFieldsZero(spec.Options); err != nil {
		return JobStatus{}, err
	}
	// Reduction shapes the compiled System, so it is part of the artifact
	// identity: the keep list folds in every node the job can observe or
	// seed (the deck's own .PRINT/.IC/.NODESET references are added by the
	// cache itself).
	entry, hit, err := s.cache.Compile(spec.Deck, artifact.BuildOptions{
		Reduce:     spec.Options.Reduce,
		ReduceTol:  spec.Options.ReduceTol,
		ReduceKeep: reduceKeepList(spec.Options),
	})
	if err != nil {
		return JobStatus{}, err
	}
	merged, err := (*Deck)(entry.Deck).ApplyTo(spec.Options)
	if err != nil {
		return JobStatus{}, err
	}
	if err := merged.validate(); err != nil {
		return JobStatus{}, err
	}
	if merged.Windows > 1 {
		return JobStatus{}, fmt.Errorf("%w: Windows %d: a preempted job continues from the engine state of its last accepted step, and a time-parallel run has no single one", ErrJobUnsupported, merged.Windows)
	}
	base, err := baseOptions(entry.Sys, merged)
	if err != nil {
		return JobStatus{}, err
	}
	signals := transient.RecordSet(entry.Sys, base).Names
	if ri := expansion(entry.Sys, merged); ri != nil {
		signals = slices.Clone(ri.OrigNodes)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, errors.New("wavepipe: service closed")
	}
	queued := 0
	for _, q := range s.jobs {
		q.mu.Lock()
		if q.state == JobQueued {
			queued++
		}
		q.mu.Unlock()
	}
	if queued >= s.cfg.MaxQueued {
		s.mu.Unlock()
		s.rejected.Add(1)
		return JobStatus{}, fmt.Errorf("%w (%d jobs waiting)", ErrQueueFull, queued)
	}
	s.seq++
	jctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:       fmt.Sprintf("j%06d", s.seq),
		spec:     spec,
		ctx:      jctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		state:    JobQueued,
		cacheHit: hit,
		signals:  signals,
		update:   make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.wg.Add(1)
	s.mu.Unlock()
	s.submitted.Add(1)

	go s.run(j, entry, merged)
	return s.status(j), nil
}

// managedFieldsZero rejects option fields the service owns.
func managedFieldsZero(o TranOptions) error {
	switch {
	case o.CheckpointPath != "" || o.CheckpointEvery != 0 || o.ResumeFrom != "":
		return errors.New("wavepipe: Submit: a job's state across preemption is kept by the service (no CheckpointPath, CheckpointEvery or ResumeFrom)")
	case o.OnAccept != nil:
		return errors.New("wavepipe: Submit: OnAccept is managed by the service (use Stream)")
	case o.Observer != nil:
		return errors.New("wavepipe: Submit: Observer is managed by the service")
	case o.Faults != nil:
		return errors.New("wavepipe: Submit: fault injection is not accepted over the job API")
	}
	return nil
}

// run drives one job through acquire → simulate → (preempt/resume)* → end.
func (s *Service) run(j *job, entry *artifact.Entry, opts TranOptions) {
	defer s.wg.Done()
	// The row is the Result's own and is never written again (OnAccept).
	opts.OnAccept = func(t float64, row []float64) {
		p := StreamPoint{T: t, Values: row}
		j.mu.Lock()
		j.rows = append(j.rows, p)
		j.broadcastLocked()
		j.mu.Unlock()
	}
	var rec *trace.Recorder
	observers := []trace.Observer{s.metrics}
	if s.cfg.TraceJobs {
		rec = trace.NewRecorder(0)
		observers = append(observers, rec)
	}
	opts.Observer = trace.Multi(observers...)

	// The core request: the cores the run can occupy — one for Serial, the
	// stage width for a scheme (two, or four for Combined) — and no more than
	// an explicit CoreBudget.
	// The grant (≤ the request) becomes the run's CoreBudget, so the stage
	// gang is as wide as what the arbiter allotted; the waveform is the same
	// under every grant.
	want := engineWidth(opts)
	if opts.CoreBudget > 0 {
		want = min(want, opts.CoreBudget)
	}

	// resume is the engine state a preempted attempt retained at its last
	// accepted step; the next attempt continues from it.
	var resume *checkpoint.State
	for {
		grant, err := s.arb.Acquire(j.ctx, j.spec.Priority, want)
		if err != nil {
			s.finish(j, nil, err)
			return
		}
		j.mu.Lock()
		j.state = JobRunning
		j.cores = grant.Cores
		j.broadcastLocked()
		j.mu.Unlock()

		runCtx, stopRun := context.WithCancel(j.ctx)
		var preempted atomic.Bool
		watchDone := make(chan struct{})
		go func() {
			defer close(watchDone)
			select {
			case <-grant.Preempted():
				preempted.Store(true)
				stopRun()
			case <-runCtx.Done():
			}
		}()

		o := opts
		o.CoreBudget = grant.Cores
		// Each attempt is guarded by the job's own Deadline and StallFactor
		// and persists nothing; the guard retains the final state the engine
		// captures at its last accepted step.
		ctl := checkpoint.NewController(checkpoint.Config{Deadline: o.Deadline, StallFactor: o.StallFactor})
		res, err := runGuarded(runCtx, entry.Sys, o, ctl, resume)
		stopRun()
		<-watchDone
		grant.Release()

		if err != nil && errors.Is(err, ErrCanceled) && preempted.Load() && j.ctx.Err() == nil {
			// Preempted, not canceled: the retained state is the resume
			// point (an attempt stopped before its first accepted step keeps
			// the previous one). Back to the queue; the stream keeps its rows
			// (a resumed run does not re-emit restored points).
			if st := ctl.Retained(); st != nil {
				resume = st
			}
			j.mu.Lock()
			j.state = JobPreempted
			j.cores = 0
			j.resumes++
			j.broadcastLocked()
			j.mu.Unlock()
			continue
		}
		s.finish(j, res, err)
		if rec != nil {
			s.writeTrace(j.id, rec)
		}
		return
	}
}

// finish moves a job to its terminal state and wakes waiters and streams.
func (s *Service) finish(j *job, res *Result, err error) {
	j.mu.Lock()
	j.res, j.err = res, err
	j.cores = 0
	switch {
	case err == nil:
		j.state = JobDone
	case j.canceled && errors.Is(err, ErrCanceled):
		j.state = JobCanceled
	default:
		j.state = JobFailed
	}
	j.broadcastLocked()
	j.mu.Unlock()
	close(j.done)
	s.finished.Add(1)
}

// writeTrace flushes a finished job's telemetry to <dir>/<id>.trace.jsonl.
func (s *Service) writeTrace(id string, rec *trace.Recorder) {
	f, err := os.Create(filepath.Join(s.dir, id+".trace.jsonl"))
	if err != nil {
		return
	}
	defer f.Close()
	_ = trace.WriteJSONL(f, rec.Events(), rec.Snapshots())
}

// broadcastLocked wakes everything blocked on the job's next change.
// Callers hold j.mu.
func (j *job) broadcastLocked() {
	close(j.update)
	j.update = make(chan struct{})
}

func (s *Service) lookup(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

func (s *Service) status(j *job) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		Label:    j.spec.Label,
		State:    j.state,
		Priority: j.spec.Priority,
		Cores:    j.cores,
		Resumes:  j.resumes,
		CacheHit: j.cacheHit,
		Signals:  j.signals,
		Points:   len(j.rows),
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st
}

// Status snapshots a job.
func (s *Service) Status(_ context.Context, id string) (JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	return s.status(j), nil
}

// Wait blocks until the job is terminal and returns its Result. Failed and
// canceled jobs return the partial Result (when the engine salvaged one)
// alongside the typed error.
func (s *Service) Wait(ctx context.Context, id string) (*Result, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res, j.err
}

// Stream replays the job's accepted points from t=0 and then follows the
// live run. The channel is closed when the job reaches a terminal state or
// ctx is done; per-job errors are reported by Wait/Status, not the stream.
func (s *Service) Stream(ctx context.Context, id string) (<-chan StreamPoint, error) {
	j, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	out := make(chan StreamPoint, 64)
	go func() {
		defer close(out)
		next := 0
		for {
			j.mu.Lock()
			rows := j.rows
			update := j.update
			terminal := j.state.Terminal()
			j.mu.Unlock()
			for ; next < len(rows); next++ {
				select {
				case out <- rows[next]:
				case <-ctx.Done():
					return
				}
			}
			if terminal {
				return
			}
			select {
			case <-update:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

// Cancel stops a job. Terminal jobs are unaffected; unknown IDs error.
func (s *Service) Cancel(_ context.Context, id string) error {
	j, err := s.lookup(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.canceled = true
	j.mu.Unlock()
	j.cancel()
	return nil
}

// Jobs lists the IDs the service has issued, oldest first.
func (s *Service) Jobs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// CacheCounters reports the artifact cache's cumulative hits, misses and
// System builds (builds == misses unless a build failed).
func (s *Service) CacheCounters() (hits, misses, builds int64) {
	return s.cache.Counters()
}

// SchedSnapshot reports the arbiter's live and cumulative scheduling state.
// Rejections are counted at Submit, where the service enforces admission.
func (s *Service) SchedSnapshot() (coresTotal, coresInUse, running, queued int, admitted, rejected, preemptions int64) {
	return s.arb.Total(), s.arb.InUse(), s.arb.Running(), s.arb.Queued(),
		s.arb.Admitted(), s.rejected.Load(), s.arb.Preemptions()
}

// WritePrometheus writes the service metrics in Prometheus text format: the
// engine-level wavepipe_* rows plus the service-level wavesimd_* rows
// (artifact cache, scheduler, job lifecycle).
func (s *Service) WritePrometheus(w io.Writer) error {
	if err := s.metrics.WritePrometheus(w); err != nil {
		return err
	}
	hits, misses, builds := s.cache.Counters()
	total, inUse, running, queued, admitted, rejected, preempts := s.SchedSnapshot()
	rows := []struct {
		name string
		kind string
		v    int64
	}{
		{"wavesimd_artifact_cache_hits_total", "counter", hits},
		{"wavesimd_artifact_cache_misses_total", "counter", misses},
		{"wavesimd_artifact_cache_builds_total", "counter", builds},
		{"wavesimd_sched_admitted_total", "counter", admitted},
		{"wavesimd_sched_rejected_total", "counter", rejected},
		{"wavesimd_sched_preemptions_total", "counter", preempts},
		{"wavesimd_jobs_submitted_total", "counter", s.submitted.Load()},
		{"wavesimd_jobs_finished_total", "counter", s.finished.Load()},
		{"wavesimd_cores_total", "gauge", int64(total)},
		{"wavesimd_cores_in_use", "gauge", int64(inUse)},
		{"wavesimd_jobs_running", "gauge", int64(running)},
		{"wavesimd_jobs_queued", "gauge", int64(queued)},
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", r.name, r.kind, r.name, r.v); err != nil {
			return err
		}
	}
	return nil
}

// Close cancels every live job, waits for them to unwind, and releases the
// service. Jobs canceled this way end in JobCanceled.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		j.canceled = true
		j.mu.Unlock()
		j.cancel()
	}
	s.wg.Wait()
	s.arb.Close()
	if s.ownDir {
		os.RemoveAll(s.dir)
	}
	return nil
}

// compile-time check: the in-process service is a Client.
var _ Client = (*Service)(nil)
