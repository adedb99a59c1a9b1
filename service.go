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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"wavepipe/internal/artifact"
	"wavepipe/internal/checkpoint"
	"wavepipe/internal/sched"
	"wavepipe/internal/trace"
	"wavepipe/internal/transient"
)

// ErrUnknownJob is returned by Status/Wait/Stream/Cancel for an ID the
// service never issued, or one of a finished job it no longer holds.
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
	// fails fast with ErrQueueFull. It also sizes how many finished jobs
	// the service keeps: MaxQueued + Cores, one admission window; an older
	// finished job's ID is ErrUnknownJob.
	MaxQueued int
	// CacheSize bounds the compiled-artifact cache in decks (default 16).
	CacheSize int
	// Dir receives the per-job JSONL traces of TraceJobs; the service writes
	// nothing else into it. A named Dir is created at start and left to the
	// caller; empty means a temporary directory, made only with TraceJobs
	// and removed on Close.
	Dir string
	// TraceJobs writes each job's structured telemetry to Dir/<id>.trace.jsonl
	// when the job ends, and removes it when the job is forgotten. Without it
	// the service touches no file.
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
	cfg    ServiceConfig
	arb    *sched.Arbiter
	cache  *artifact.Cache
	dir    string
	ownDir bool

	mu     sync.Mutex
	jobs   map[string]*job
	queued int // jobs that have not yet left JobQueued: the admission count
	seq    int
	// done holds the IDs of the terminal jobs still in jobs, oldest first:
	// at most one admission window, MaxQueued + Cores.
	done   []string
	closed bool
	// The engine counters /metrics renders, folded from each finished job:
	// the sum of their Stats, serial fallbacks, and jobs ended JobCanceled.
	stats     Stats
	fallbacks int64
	cancels   int64
	wg        sync.WaitGroup

	submitted atomic.Int64
	finished  atomic.Int64
	rejected  atomic.Int64
}

// job is the service-side state of one submission.
type job struct {
	id     string
	seq    int
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
	update   chan struct{} // closed and replaced on a state/row change once a Stream took it
	watched  bool          // a Stream holds update
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
		arb:    sched.NewArbiter(cfg.Cores),
		cache:  artifact.New(cfg.CacheSize),
		dir:    dir,
		ownDir: ownDir,
		jobs:   make(map[string]*job),
	}, nil
}

// Submit compiles the deck (through the artifact cache), merges its cards
// into the options, and enqueues the job with the global arbiter. It
// returns as soon as the job is queued; the returned status carries the
// job ID and whether the compiled artifacts were reused.
func (s *Service) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	if spec.Deck == "" {
		return JobStatus{}, fmt.Errorf("wavepipe: Submit: empty deck")
	}
	if spec.Deadline < 0 {
		return JobStatus{}, fmt.Errorf("wavepipe: Submit: Deadline must not be negative (got %v)", spec.Deadline)
	}
	if err := managedFieldsZero(spec.Options); err != nil {
		return JobStatus{}, err
	}
	// Reduction shapes the compiled System, so it is part of the artifact
	// identity: the keep list folds in every node the job can observe or
	// seed (the deck's own .PRINT/.IC/.NODESET references are added by the
	// cache itself).
	entry, hit, err := s.cache.Compile(spec.Deck, artifact.BuildOptions{
		Reduce:    spec.Options.Reduce,
		ReduceTol: spec.Options.ReduceTol,
		Keep:      reduceKeepList(spec.Options),
	})
	if err != nil {
		return JobStatus{}, err
	}
	merged := (*Deck)(entry.Deck).ApplyTo(spec.Options)
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
	if queued := s.queued; queued >= s.cfg.MaxQueued {
		s.mu.Unlock()
		s.rejected.Add(1)
		return JobStatus{}, fmt.Errorf("%w (%d jobs waiting)", ErrQueueFull, queued)
	}
	s.queued++
	s.seq++
	var jctx context.Context
	var cancel context.CancelFunc
	if spec.Deadline > 0 {
		jctx, cancel = context.WithTimeout(context.Background(), spec.Deadline)
	} else {
		jctx, cancel = context.WithCancel(context.Background())
	}
	j := &job{
		id:       jobID(s.seq),
		seq:      s.seq,
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
	case o.CheckpointPath != "" || o.ResumeFrom != "":
		return errors.New("wavepipe: Submit: a job's state across preemption is kept by the service (no CheckpointPath or ResumeFrom)")
	case o.OnAccept != nil:
		return errors.New("wavepipe: Submit: OnAccept is managed by the service (use Stream)")
	case o.Observer != nil:
		return errors.New("wavepipe: Submit: Observer is managed by the service")
	}
	return nil
}

// jobOptions wires a job's options to the service: OnAccept appends each
// accepted row to the job's stream, and only TraceJobs attaches an observer,
// the job's own Recorder. Otherwise the job runs untraced, on the same hot
// path as RunDeckCtx: the service's counters come from the final Stats.
func (s *Service) jobOptions(j *job, opts TranOptions) (TranOptions, *trace.Recorder) {
	// The row is the Result's own and is never written again (OnAccept).
	opts.OnAccept = func(t float64, row []float64) {
		p := StreamPoint{T: t, Values: row}
		j.mu.Lock()
		j.rows = append(j.rows, p)
		j.broadcastLocked()
		j.mu.Unlock()
	}
	if !s.cfg.TraceJobs {
		return opts, nil
	}
	rec := trace.NewRecorder(0)
	opts.Observer = rec
	return opts, rec
}

// run drives one job through acquire → simulate → (preempt/resume)* → end.
func (s *Service) run(j *job, entry *artifact.Entry, opts TranOptions) {
	defer s.wg.Done()
	opts, rec := s.jobOptions(j, opts)

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
	for first := true; ; first = false {
		grant, err := s.arb.Acquire(j.ctx, j.spec.Priority, want)
		if first {
			// The job leaves JobQueued now, for running or, with no grant,
			// for a terminal state. A preempted job waits as JobPreempted
			// and is not counted again.
			s.mu.Lock()
			s.queued--
			s.mu.Unlock()
		}
		if err != nil {
			// The job's context ended while it waited (its deadline or a
			// Cancel): it ends as a run stopped at its last accepted step
			// would, with the partial result an earlier attempt retained.
			if serr := (&transient.Options{Ctx: j.ctx}).Stop("queue", 0); serr != nil {
				err = serr
			}
			res := transient.SalvageResult(resume)
			finishReduced(entry.Sys, opts, res)
			s.finish(j, res, err)
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
		// Each attempt runs under the job's context, whose deadline spans
		// every attempt, and a guard that persists nothing: it arms the
		// job's StallFactor and retains the final state the engine captures
		// at its last accepted step.
		ctl := checkpoint.NewController(checkpoint.Config{StallFactor: o.StallFactor})
		res, err := runGuarded(runCtx, entry.Sys, o, ctl, resume)
		stopRun()
		<-watchDone
		grant.Release()

		if errors.Is(err, ErrCanceled) && preempted.Load() && !errors.Is(j.ctx.Err(), context.Canceled) {
			// Preempted, not canceled: the retained state is the resume
			// point (an attempt stopped before its first accepted step keeps
			// the previous one). Back to the queue; the stream keeps its rows
			// (a resumed run does not re-emit restored points). A deadline
			// that passed meanwhile ends the job at the next Acquire.
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
		if rec != nil {
			s.writeTrace(j.id, rec)
		}
		s.finish(j, res, err)
		return
	}
}

// finish moves a job to its terminal state and wakes waiters and streams.
// The job's Stats (a salvaged partial result included) are folded into the
// service's counters before anyone can see the job terminal. Past one
// admission window of terminal jobs the oldest is forgotten: a client that
// filled the queue and the cores still collects every result, and a Wait or
// Stream already holding the job finishes as usual. A forgotten job's trace
// goes with it; it was written before the job turned terminal.
func (s *Service) finish(j *job, res *Result, err error) {
	state := JobFailed
	j.mu.Lock()
	switch {
	case err == nil:
		state = JobDone
	case j.canceled && errors.Is(err, ErrCanceled):
		state = JobCanceled
	}
	j.mu.Unlock()

	s.mu.Lock()
	if state == JobCanceled {
		s.cancels++
	}
	if res != nil {
		s.stats.Add(res.Stats)
		s.fallbacks += int64(res.Recovery.Count(transient.RecoverySerialFallback))
	}
	j.mu.Lock()
	j.res, j.err, j.state, j.cores = res, err, state, 0
	j.broadcastLocked()
	j.mu.Unlock()
	s.done = append(s.done, j.id)
	forgot := ""
	if len(s.done) > s.cfg.MaxQueued+s.cfg.Cores {
		forgot = s.done[0]
		delete(s.jobs, forgot)
		s.done = slices.Delete(s.done, 0, 1)
	}
	s.mu.Unlock()
	if forgot != "" && s.cfg.TraceJobs {
		os.Remove(s.tracePath(forgot))
	}
	close(j.done)
	s.finished.Add(1)
}

func (s *Service) tracePath(id string) string { return filepath.Join(s.dir, id+".trace.jsonl") }

// writeTrace flushes a finished job's telemetry to <dir>/<id>.trace.jsonl.
func (s *Service) writeTrace(id string, rec *trace.Recorder) {
	f, err := os.Create(s.tracePath(id))
	if err != nil {
		return
	}
	defer f.Close()
	_ = trace.WriteJSONL(f, rec.Events(), rec.Snapshots())
}

// broadcastLocked wakes every Stream blocked on the job's next change; with
// none it allocates nothing. Callers hold j.mu.
func (j *job) broadcastLocked() {
	if !j.watched {
		return
	}
	close(j.update)
	j.update = make(chan struct{})
	j.watched = false
}

func jobID(seq int) string { return fmt.Sprintf("j%06d", seq) }

func (s *Service) lookup(id string) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n > 0 && n <= s.seq && jobID(n) == id {
			return nil, fmt.Errorf("%w: %q finished and evicted", ErrUnknownJob, id)
		}
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
			j.watched = true
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

// Jobs lists the IDs the service still holds, oldest first.
func (s *Service) Jobs() []string {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	slices.SortFunc(jobs, func(a, b *job) int { return a.seq - b.seq })
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.id
	}
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
// engine-level wavepipe_* counters summed over finished jobs, then the
// service-level wavesimd_* rows (artifact cache, scheduler, job lifecycle).
func (s *Service) WritePrometheus(w io.Writer) error {
	s.mu.Lock()
	st := s.stats
	totals := trace.Counters{
		Points: int64(st.Points), Solves: int64(st.Solves), NRIters: int64(st.NRIters),
		LTERejects: int64(st.LTERejects), Discarded: int64(st.Discarded), Recoveries: int64(st.Recoveries),
		SerialFallbacks: s.fallbacks, Cancels: s.cancels, ReuseHits: int64(st.ReusedFactorizations),
	}
	s.mu.Unlock()
	if err := totals.WritePrometheus(w); err != nil {
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
