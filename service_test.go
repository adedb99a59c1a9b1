package wavepipe

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wavepipe/internal/transient"
)

// serviceDeck is a small RC deck for quick service jobs.
const serviceDeck = `* rc lowpass
V1 in 0 PULSE(0 1 0 1n 1n 10n 20n)
R1 in out 1k
C1 out 0 1n
.tran 1n 40n
.end
`

// longDeck forces tens of thousands of accepted points (tiny max step), so
// a job stays running long enough to be preempted or canceled mid-flight,
// untraced service jobs being as fast as an in-process run.
const longDeck = `* long rc
V1 in 0 PULSE(0 1 0 1n 1n 10n 20n)
R1 in out 1k
C1 out 0 1n
.tran 0.1n 20000n 0 0.5n
.end
`

// hugeDeck cannot finish within any test timeout (hundreds of millions of
// forced points); jobs that must occupy a core until canceled use it.
const hugeDeck = `* huge rc
V1 in 0 PULSE(0 1 0 1n 1n 10n 20n)
R1 in out 1k
C1 out 0 1n
.tran 0.1n 100000000n 0 0.5n
.end
`

func newTestService(t *testing.T, cfg ServiceConfig) *Service {
	t.Helper()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestServiceRoundTrip: submit → stream → wait, and a repeat submission of
// the same deck hits the artifact cache.
func TestServiceRoundTrip(t *testing.T) {
	s := newTestService(t, ServiceConfig{Cores: 2})
	st, err := s.Submit(context.Background(), JobSpec{Deck: serviceDeck, Label: "first"})
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	if len(st.Signals) == 0 {
		t.Fatal("no signal names at submit time")
	}
	ch, err := s.Stream(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	var lastT float64 = -1
	for p := range ch {
		if p.T <= lastT {
			t.Fatalf("stream out of order: %g after %g", p.T, lastT)
		}
		if len(p.Values) != len(st.Signals) {
			t.Fatalf("row width %d, want %d", len(p.Values), len(st.Signals))
		}
		lastT = p.T
		streamed++
	}
	res, err := s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.W.Len() != streamed {
		t.Fatalf("streamed %d rows, result has %d", streamed, res.W.Len())
	}
	st2, err := s.Submit(context.Background(), JobSpec{Deck: serviceDeck})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatal("repeat deck missed the artifact cache")
	}
	if _, err := s.Wait(context.Background(), st2.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := s.Status(context.Background(), st2.ID)
	if err != nil || fin.State != JobDone {
		t.Fatalf("state=%v err=%v, want done", fin.State, err)
	}
}

// TestServiceGlobalBudgetNeverExceeded: many concurrent jobs, each asking
// for more cores than exist, never oversubscribe the global budget.
func TestServiceGlobalBudgetNeverExceeded(t *testing.T) {
	const cores, jobs = 2, 8
	s := newTestService(t, ServiceConfig{Cores: cores, MaxQueued: jobs})
	stop := make(chan struct{})
	var peak int
	var pmu sync.Mutex
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, inUse, _, _, _, _, _ := s.SchedSnapshot()
			pmu.Lock()
			if inUse > peak {
				peak = inUse
			}
			pmu.Unlock()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		// Distinct decks so compile misses don't serialize on the cache hit
		// path; each asks for 4 cores on a 2-core budget.
		deck := fmt.Sprintf("* j%d\nV1 in 0 PULSE(0 1 0 1n 1n 10n 20n)\nR1 in out %dk\nC1 out 0 1n\n.tran 1n 40n\n.end\n", i, i+1)
		st, err := s.Submit(context.Background(), JobSpec{
			Deck:     deck,
			Options:  TranOptions{CoreBudget: 4},
			Priority: i % 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if _, err := s.Wait(context.Background(), id); err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
	}
	close(stop)
	pmu.Lock()
	defer pmu.Unlock()
	if peak > cores {
		t.Fatalf("peak cores in use %d exceeds global budget %d", peak, cores)
	}
	if total, inUse, running, queued, _, _, _ := s.SchedSnapshot(); inUse != 0 || running != 0 || queued != 0 {
		t.Fatalf("leaked scheduling state: total=%d inUse=%d running=%d queued=%d", total, inUse, running, queued)
	}
}

// preemptLowJob submits a low-priority longDeck job to a one-core service,
// waits until it is mid-run, submits a high-priority longDeck job and returns
// both once the low one is seen preempted.
func preemptLowJob(t *testing.T, s *Service) (low, high JobStatus) {
	t.Helper()
	low, err := s.Submit(context.Background(), JobSpec{Deck: longDeck, Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the low job is demonstrably mid-run (some points accepted,
	// thousands still to go), then submit the high-priority job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, serr := s.Status(context.Background(), low.ID)
		if serr != nil {
			t.Fatal(serr)
		}
		if st.State.Terminal() {
			t.Fatalf("low job finished before preemption could be arranged (state %v)", st.State)
		}
		if st.Points >= 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("low job never started accepting points")
		}
		time.Sleep(time.Millisecond)
	}
	// The high job is the long deck too, so the low one stays preempted
	// long enough to be seen.
	high, err = s.Submit(context.Background(), JobSpec{Deck: longDeck, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, serr := s.Status(context.Background(), low.ID)
		if serr != nil {
			t.Fatal(serr)
		}
		if st.State == JobPreempted {
			return low, high
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("low job never seen preempted (state %v)", st.State)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestServicePreemptionResumesBitIdentical: a higher-priority job preempts
// a running low-priority one at an accepted-step boundary; the low job keeps
// the engine state of that step in memory — its Dir holds no file while it
// waits — resumes from it, and its final waveform is bit-identical to an
// uninterrupted run of the same deck.
func TestServicePreemptionResumesBitIdentical(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, ServiceConfig{Cores: 1, Dir: dir})
	low, high := preemptLowJob(t, s)
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Fatalf("a preempted job's state is kept in memory, but Dir holds %v (err %v)", files, err)
	}
	if _, err := s.Wait(context.Background(), high.ID); err != nil {
		t.Fatalf("high-priority job: %v", err)
	}
	res, err := s.Wait(context.Background(), low.ID)
	if err != nil {
		t.Fatalf("low-priority job after resume: %v", err)
	}
	lowSt, err := s.Status(context.Background(), low.ID)
	if err != nil {
		t.Fatal(err)
	}
	if lowSt.Resumes < 1 {
		t.Fatalf("low job resumes = %d, want >= 1 (was it ever preempted?)", lowSt.Resumes)
	}
	if _, _, _, _, _, _, preempts := s.SchedSnapshot(); preempts < 1 {
		t.Fatalf("arbiter preemptions = %d, want >= 1", preempts)
	}
	if lowSt.Points != res.W.Len() {
		t.Fatalf("stream saw %d points, result has %d (duplicate or lost rows across resume)", lowSt.Points, res.W.Len())
	}

	// Uninterrupted reference at the same core budget.
	d, err := ParseDeck(longDeck)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunDeckCtx(context.Background(), d, TranOptions{CoreBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.W.Len() != ref.W.Len() {
		t.Fatalf("preempted run has %d points, uninterrupted %d", res.W.Len(), ref.W.Len())
	}
	for k := range ref.W.Times {
		if res.W.Times[k] != ref.W.Times[k] {
			t.Fatalf("time %d differs: %g vs %g", k, res.W.Times[k], ref.W.Times[k])
		}
		for j := range ref.W.Names {
			if res.W.Data[k][j] != ref.W.Data[k][j] {
				t.Fatalf("sample %d signal %s differs: %g vs %g",
					k, ref.W.Names[j], res.W.Data[k][j], ref.W.Data[k][j])
			}
		}
	}
}

// TestServiceCancelMidStreamNoGoroutineLeak: canceling a job mid-stream
// closes the stream, ends the job as canceled, and leaks nothing.
func TestServiceCancelMidStreamNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := NewService(ServiceConfig{Cores: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(context.Background(), JobSpec{Deck: longDeck})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Stream(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for p := range ch {
		_ = p
		seen++
		if seen == 20 {
			if err := s.Cancel(context.Background(), st.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if seen < 20 {
		t.Fatalf("stream closed after %d rows, before the cancel point", seen)
	}
	if _, err := s.Wait(context.Background(), st.ID); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	fin, err := s.Status(context.Background(), st.ID)
	if err != nil || fin.State != JobCanceled {
		t.Fatalf("state=%v err=%v, want canceled", fin.State, err)
	}
	// Cancel is idempotent on terminal jobs.
	if err := s.Cancel(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutineBaseline(t, before)
}

// TestServiceCacheCountersReconcile: hit/miss/build counters agree with
// the submissions performed — every distinct deck builds once, every
// repeat is answered from the cache.
func TestServiceCacheCountersReconcile(t *testing.T) {
	s := newTestService(t, ServiceConfig{Cores: 2})
	const distinct, repeats = 3, 4
	var ids []string
	for r := 0; r < repeats; r++ {
		for d := 0; d < distinct; d++ {
			deck := fmt.Sprintf("* d%d\nV1 in 0 PULSE(0 1 0 1n 1n 10n 20n)\nR1 in out %dk\nC1 out 0 1n\n.tran 1n 40n\n.end\n", d, d+1)
			st, err := s.Submit(context.Background(), JobSpec{Deck: deck})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := st.CacheHit, r > 0; got != want {
				t.Fatalf("round %d deck %d: cacheHit=%v, want %v", r, d, got, want)
			}
			ids = append(ids, st.ID)
		}
	}
	for _, id := range ids {
		if _, err := s.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, builds := s.CacheCounters()
	if hits+misses != distinct*repeats {
		t.Fatalf("hits %d + misses %d != submissions %d", hits, misses, distinct*repeats)
	}
	if builds != distinct || misses != distinct {
		t.Fatalf("builds=%d misses=%d, want %d each (one System build per distinct deck)", builds, misses, distinct)
	}
}

// TestServiceAdmissionControl: the queue bound turns into ErrQueueFull at
// Submit, not an unbounded backlog.
func TestServiceAdmissionControl(t *testing.T) {
	s := newTestService(t, ServiceConfig{Cores: 1, MaxQueued: 1})
	first, err := s.Submit(context.Background(), JobSpec{Deck: hugeDeck})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first job to hold the core so followers queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, running, _, _, _, _ := s.SchedSnapshot(); running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	second, err := s.Submit(context.Background(), JobSpec{Deck: serviceDeck})
	if err != nil {
		t.Fatal(err)
	}
	// The queue (bound 1) now holds the second job; the third must bounce.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, _, _, queued, _, _, _ := s.SchedSnapshot(); queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(context.Background(), JobSpec{Deck: serviceDeck}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if err := s.Cancel(context.Background(), first.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), second.ID); err != nil {
		t.Fatal(err)
	}
}

// TestServiceRejectsManagedFields: durability and observer options belong
// to the service, not the submission.
func TestServiceRejectsManagedFields(t *testing.T) {
	s := newTestService(t, ServiceConfig{Cores: 1})
	bad := []TranOptions{
		{CheckpointPath: "x"},
		{CheckpointEvery: 8},
		{ResumeFrom: "x"},
		{OnAccept: func(float64, []float64) {}},
		{Observer: NewTraceMetrics()},
		{Faults: NewFaultInjector()},
	}
	for i, o := range bad {
		if _, err := s.Submit(context.Background(), JobSpec{Deck: serviceDeck, Options: o}); err == nil {
			t.Fatalf("case %d: managed field accepted", i)
		}
	}
}

// TestServiceRefusesWindowedJob: a preempted job continues from the engine
// state of its last accepted step and a Windows > 1 run has no single one, so
// Submit must refuse it with the typed error — not admit a job that can only
// fail. Windows ≤ 1 is a plain run and goes through.
func TestServiceRefusesWindowedJob(t *testing.T) {
	s := newTestService(t, ServiceConfig{Cores: 2})
	ctx := context.Background()
	_, err := s.Submit(ctx, JobSpec{Deck: serviceDeck, Options: TranOptions{Windows: 4, CoreBudget: 2}})
	if !errors.Is(err, ErrJobUnsupported) {
		t.Fatalf("Windows=4 job: err = %v, want ErrJobUnsupported", err)
	}
	if ids := s.Jobs(); len(ids) != 0 {
		t.Fatalf("refused job was admitted: %v", ids)
	}
	st, err := s.Submit(ctx, JobSpec{Deck: serviceDeck, Options: TranOptions{Windows: 1}})
	if err != nil {
		t.Fatalf("Windows=1 job refused: %v", err)
	}
	if _, err := s.Wait(ctx, st.ID); err != nil {
		t.Fatalf("Windows=1 job failed: %v", err)
	}
}

// endlessDeck cannot finish within any test timeout either, and unlike
// hugeDeck starts at once: a DC source has no breakpoints to enumerate.
const endlessDeck = `* endless rc
V1 in 0 DC 1
R1 in out 1k
C1 out 0 1n
.tran 0.1n 100000000n 0 0.5n UIC
.end
`

// waitRunning polls until every listed job is running at once and returns
// their statuses; it fails the test when that has not happened in 5 s or a
// job ended first.
func waitRunning(t *testing.T, s *Service, ids ...string) []JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sts := make([]JobStatus, 0, len(ids))
		for _, id := range ids {
			st, err := s.Status(context.Background(), id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State.Terminal() {
				t.Fatalf("job %s ended (%v) before it could be seen running", id, st.State)
			}
			if st.State == JobRunning {
				sts = append(sts, st)
			}
		}
		if len(sts) == len(ids) {
			return sts
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs running after 5 s: the others wait for cores", len(sts), len(ids))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServiceRequestsTheCoresARunCanOccupy: a job asks the arbiter for the
// width of its engine, capped by its CoreBudget — not for the budget itself.
// Two Serial jobs with CoreBudget 2 on a two-core service therefore run side
// by side on one core each instead of the second waiting behind a core the
// first holds idle, and a four-thread pipeline under CoreBudget 2 is still
// granted two.
func TestServiceRequestsTheCoresARunCanOccupy(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, ServiceConfig{Cores: 2})
	var ids []string
	for i := 0; i < 2; i++ {
		st, err := s.Submit(ctx, JobSpec{Deck: endlessDeck, Options: TranOptions{CoreBudget: 2}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, st := range waitRunning(t, s, ids...) {
		if st.Cores != 1 {
			t.Fatalf("Serial job %s holds %d cores, want 1", st.ID, st.Cores)
		}
	}
	for _, id := range ids {
		if err := s.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(ctx, id); !errors.Is(err, ErrCanceled) {
			t.Fatalf("job %s: err = %v, want ErrCanceled", id, err)
		}
	}

	// A Combined stage solves four points, so a default Combined job asks for
	// four cores; an explicit budget caps the request.
	wide := newTestService(t, ServiceConfig{Cores: 4})
	for _, c := range []struct {
		budget, want int
	}{{0, 4}, {2, 2}} {
		st, err := wide.Submit(ctx, JobSpec{Deck: endlessDeck, Options: TranOptions{Scheme: Combined, CoreBudget: c.budget}})
		if err != nil {
			t.Fatal(err)
		}
		if got := waitRunning(t, wide, st.ID)[0].Cores; got != c.want {
			t.Fatalf("Combined/CoreBudget=%d job holds %d cores, want %d", c.budget, got, c.want)
		}
		if err := wide.Cancel(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := wide.Wait(ctx, st.ID); !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	}
}

// TestServiceResultIndependentOfGrant: the same deck with the same options
// returns the same waveform bit for bit whatever the arbiter granted — here
// CoreBudget 4 on a one-core service and on a four-core one.
func TestServiceResultIndependentOfGrant(t *testing.T) {
	deck, err := os.ReadFile("testdata/grid16.sp")
	if err != nil {
		t.Fatal(err)
	}
	run := func(cores int) *Result {
		s := newTestService(t, ServiceConfig{Cores: cores})
		st, err := s.Submit(context.Background(), JobSpec{Deck: string(deck), Options: TranOptions{CoreBudget: 4}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Wait(context.Background(), st.ID)
		if err != nil {
			t.Fatalf("Cores=%d: %v", cores, err)
		}
		return res
	}
	sameWaveform(t, "granted 4 cores vs granted 1", run(4), run(1))
}

// checkStreamed holds a drained stream to the contract bench/service.go's
// checkStream checks: every accepted point once, in time order, equal to the
// rows of the returned Result.
func checkStreamed(t *testing.T, pts []StreamPoint, res *Result) {
	t.Helper()
	if res == nil || res.W == nil {
		t.Fatal("no result waveform")
	}
	if len(pts) != res.W.Len() {
		t.Fatalf("stream has %d points, result %d", len(pts), res.W.Len())
	}
	for i, pt := range pts {
		if pt.T != res.W.Times[i] {
			t.Fatalf("stream point %d at t=%g, result row at t=%g", i, pt.T, res.W.Times[i])
		}
		if !slices.Equal(pt.Values, res.W.Data[i]) {
			t.Fatalf("stream point %d has %d values %v, result row %d %v", i, len(pt.Values), pt.Values, len(res.W.Data[i]), res.W.Data[i])
		}
	}
}

// TestServiceReduceJobStreamsItsResultColumns: a Reduce job that records
// every node streams what Wait returns — the original node names and their
// values row for row, not the reduced nodes the engine solved.
func TestServiceReduceJobStreamsItsResultColumns(t *testing.T) {
	s := newTestService(t, ServiceConfig{Cores: 1})
	ctx := context.Background()
	st, err := s.Submit(ctx, JobSpec{Deck: reduceLadderDeck(200), Options: TranOptions{Reduce: true, ReduceTol: DefaultReduceTol}})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := s.Stream(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var pts []StreamPoint
	for p := range ch {
		pts = append(pts, p)
	}
	res, err := s.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReducedNodes == 0 {
		t.Fatal("the ladder was not reduced: nothing to expand")
	}
	if !slices.Equal(st.Signals, res.W.Names) {
		t.Fatalf("job signals (%d) %v differ from the result's (%d)", len(st.Signals), st.Signals, len(res.W.Names))
	}
	checkStreamed(t, pts, res)
}

// TestServiceTouchesDirOnlyForTraces: without TraceJobs the service creates
// no directory of its own and writes no file into a named Dir; with it, Dir
// receives one trace per job.
func TestServiceTouchesDirOnlyForTraces(t *testing.T) {
	ctx := context.Background()
	runOne := func(cfg ServiceConfig) string {
		s := newTestService(t, cfg)
		st, err := s.Submit(ctx, JobSpec{Deck: serviceDeck})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		return st.ID
	}

	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	runOne(ServiceConfig{Cores: 1})
	if files, err := os.ReadDir(tmp); err != nil || len(files) != 0 {
		t.Fatalf("TraceJobs off, no Dir: the temp directory holds %v (err %v)", files, err)
	}

	dir := t.TempDir()
	runOne(ServiceConfig{Cores: 1, Dir: dir})
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Fatalf("TraceJobs off: Dir holds %v (err %v)", files, err)
	}

	dir = filepath.Join(t.TempDir(), "traces")
	id := runOne(ServiceConfig{Cores: 1, Dir: dir, TraceJobs: true})
	// The trace is written right after the job turns terminal.
	files, err := os.ReadDir(dir)
	for deadline := time.Now().Add(5 * time.Second); err == nil && len(files) == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		files, err = os.ReadDir(dir)
	}
	if err != nil || len(files) != 1 || files[0].Name() != id+".trace.jsonl" {
		t.Fatalf("TraceJobs on: Dir holds %v (err %v), want %s.trace.jsonl", files, err, id)
	}
}

// TestServiceJobDeadline: a job's own Deadline still bounds it — each attempt
// runs under a guard built from the job's Deadline and StallFactor — and the
// job fails with ErrDeadlineExceeded and its partial Result.
func TestServiceJobDeadline(t *testing.T) {
	s := newTestService(t, ServiceConfig{Cores: 1})
	ctx := context.Background()
	st, err := s.Submit(ctx, JobSpec{Deck: endlessDeck, Options: TranOptions{Deadline: 50 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	res, err := s.Wait(wctx, st.ID)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if res == nil || res.W == nil || res.W.Len() < 2 {
		t.Fatalf("no partial result with the deadline error: %+v", res)
	}
	if fin, err := s.Status(ctx, st.ID); err != nil || fin.State != JobFailed {
		t.Fatalf("state=%v err=%v, want failed", fin.State, err)
	}
}

// TestServiceMetricsReconcileWithStats: the wavepipe_* counters /metrics
// renders are the sums of the finished jobs' Result.Stats — a job preempted
// and resumed counts once, with the Stats its resumed run carried over, and a
// canceled job adds its partial Stats and one cancel. The gauges of the most
// recent accept, last-writer-wins across concurrent jobs, are not rendered.
func TestServiceMetricsReconcileWithStats(t *testing.T) {
	ctx := context.Background()
	s := newTestService(t, ServiceConfig{Cores: 1})
	low, high := preemptLowJob(t, s)
	ids := []string{low.ID, high.ID}

	canceled, err := s.Submit(ctx, JobSpec{Deck: endlessDeck})
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, canceled.ID)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := s.Status(ctx, canceled.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Points >= 20 {
			break
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job to cancel never ran (state %v, %d points)", st.State, st.Points)
		}
	}
	if err := s.Cancel(ctx, canceled.ID); err != nil {
		t.Fatal(err)
	}
	// A Combined job on a nonlinear deck discards speculative points.
	deck, err := os.ReadFile("testdata/opamp_filter.sp")
	if err != nil {
		t.Fatal(err)
	}
	combined, err := s.Submit(ctx, JobSpec{Deck: string(deck), Options: TranOptions{Scheme: Combined}})
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, combined.ID)

	want := map[string]int64{}
	for _, id := range ids {
		res, err := s.Wait(ctx, id)
		if id == canceled.ID {
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("canceled job: err = %v, want ErrCanceled", err)
			}
			want["wavepipe_cancels_total"]++
		} else if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if res == nil {
			t.Fatalf("job %s returned no result", id)
		}
		st := res.Stats
		want["wavepipe_points_total"] += int64(st.Points)
		want["wavepipe_solves_total"] += int64(st.Solves)
		want["wavepipe_nr_iters_total"] += int64(st.NRIters)
		want["wavepipe_lte_rejects_total"] += int64(st.LTERejects)
		want["wavepipe_discarded_total"] += int64(st.Discarded)
		want["wavepipe_recoveries_total"] += int64(st.Recoveries)
		want["wavepipe_reuse_hits_total"] += int64(st.ReusedFactorizations)
		want["wavepipe_serial_fallbacks_total"] += int64(res.Recovery.Count(transient.RecoverySerialFallback))
	}
	if st, err := s.Status(ctx, low.ID); err != nil || st.Resumes < 1 {
		t.Fatalf("low job resumes = %d (err %v), want >= 1", st.Resumes, err)
	}
	if want["wavepipe_points_total"] == 0 || want["wavepipe_discarded_total"] == 0 {
		t.Fatalf("jobs did no measurable work: %v", want)
	}

	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("row %q: %v", sc.Text(), err)
		}
		got[name] = v
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != float64(w) {
			t.Errorf("%s = %v (rendered %v), want the jobs' sum %d", name, g, ok, w)
		}
	}
	for _, name := range []string{"wavepipe_step_size_seconds", "wavepipe_sim_time_seconds", "wavepipe_points_per_second", "wavepipe_trace_events_total"} {
		if _, ok := got[name]; ok {
			t.Errorf("%s rendered by the service", name)
		}
	}
}

// TestServiceJobRunsUntraced: without TraceJobs a job's options carry no
// Observer, so it runs on the engine's untraced path; with TraceJobs the job's
// own Recorder is its only observer and its trace lands in Dir.
func TestServiceJobRunsUntraced(t *testing.T) {
	plain := newTestService(t, ServiceConfig{Cores: 1})
	o, rec := plain.jobOptions(&job{update: make(chan struct{})}, TranOptions{})
	if o.Observer != nil || rec != nil {
		t.Fatalf("untraced service: job observer %v, recorder %v, want none", o.Observer, rec)
	}
	if o.OnAccept == nil {
		t.Fatal("job options carry no OnAccept: nothing would stream")
	}

	dir := t.TempDir()
	traced := newTestService(t, ServiceConfig{Cores: 1, Dir: dir, TraceJobs: true})
	o, rec = traced.jobOptions(&job{update: make(chan struct{})}, TranOptions{})
	if rec == nil || o.Observer != Observer(rec) {
		t.Fatalf("TraceJobs: job observer %v, want the job's recorder %v", o.Observer, rec)
	}
	ctx := context.Background()
	st, err := traced.Submit(ctx, JobSpec{Deck: serviceDeck})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traced.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	// The trace is written right after the job turns terminal.
	path := filepath.Join(dir, st.ID+".trace.jsonl")
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("TraceJobs: no trace at %s", path)
		}
	}
}
