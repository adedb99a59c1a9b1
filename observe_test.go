package wavepipe_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wavepipe"
	"wavepipe/internal/circuits"
)

func buildBench(t *testing.T, name string) (*wavepipe.System, wavepipe.TranOptions) {
	t.Helper()
	for _, b := range circuits.Suite() {
		if b.Name != name {
			continue
		}
		sys, err := b.Make().Build()
		if err != nil {
			t.Fatal(err)
		}
		return sys, wavepipe.TranOptions{TStop: b.TStop, Record: []string{b.Probe}}
	}
	t.Fatalf("no benchmark circuit %q", name)
	return nil, wavepipe.TranOptions{}
}

// TestTracedRunReconcilesWithStats is the acceptance test for the trace
// layer: a pipelined run of either scheme with an observer attached produces
// an event stream whose replayed counters agree exactly with the engine's own
// Stats, and whose Chrome export is loadable JSON.
func TestTracedRunReconcilesWithStats(t *testing.T) {
	for _, scheme := range []wavepipe.Scheme{wavepipe.Backward, wavepipe.Forward} {
		t.Run(scheme.String(), func(t *testing.T) { tracedRunReconciles(t, scheme) })
	}
}

func tracedRunReconciles(t *testing.T, scheme wavepipe.Scheme) {
	sys, opts := buildBench(t, "grid16")
	opts.Scheme = scheme
	rec := wavepipe.NewTraceRecorder(0) // unbounded: reconciliation needs every event
	opts.Observer = rec

	res, err := wavepipe.RunTransientCtx(context.Background(), sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("unbounded recorder dropped %d events", rec.Dropped())
	}

	rc := wavepipe.ReplayTrace(rec.Events())
	check := func(name string, got, want int) {
		if got != want {
			t.Errorf("%s: replayed %d, Stats say %d", name, got, want)
		}
	}
	check("Points", rc.Points, res.Stats.Points)
	check("Solves", rc.Solves, res.Stats.Solves)
	check("NRIters", rc.NRIters, res.Stats.NRIters)
	check("LTERejects", rc.LTERejects, res.Stats.LTERejects)
	check("Discarded", rc.Discarded, res.Stats.Discarded)
	check("Recoveries", rc.Recoveries, res.Stats.Recoveries)
	check("ReusedFactorizations", rc.ReuseHits, res.Stats.ReusedFactorizations)
	if res.Stats.ReusedFactorizations == 0 {
		t.Error("a linear mesh never reused a factorization: the 1:1 check above is vacuous")
	}
	if res.Stats.Points == 0 || res.Stats.Solves == 0 {
		t.Fatalf("degenerate run: %+v", res.Stats)
	}

	// The same stream must survive a JSONL round trip bit-exactly.
	var buf bytes.Buffer
	if err := wavepipe.WriteTraceJSONL(&buf, rec.Events(), rec.Snapshots()); err != nil {
		t.Fatal(err)
	}
	events, snaps, err := wavepipe.ReadTraceJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(rec.Events()) || len(snaps) != len(rec.Snapshots()) {
		t.Fatalf("roundtrip lost records: %d/%d events, %d/%d snapshots",
			len(events), len(rec.Events()), len(snaps), len(rec.Snapshots()))
	}
	if rc2 := wavepipe.ReplayTrace(events); rc2 != rc {
		t.Fatalf("roundtrip replay mismatch:\n got %+v\nwant %+v", rc2, rc)
	}

	// And the Chrome export must be a well-formed trace_event array.
	buf.Reset()
	if err := wavepipe.WriteChromeTrace(&buf, rec.Events(), rec.Snapshots()); err != nil {
		t.Fatal(err)
	}
	var doc []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(doc) < len(rec.Events()) {
		t.Fatalf("chrome trace has %d records for %d events", len(doc), len(rec.Events()))
	}
}

// TestSerialTraceReconciles covers the serial engine's emission sites (the
// pipelined engine routes through different code paths).
func TestSerialTraceReconciles(t *testing.T) {
	sys, opts := buildBench(t, "ladder400")
	rec := wavepipe.NewTraceRecorder(0)
	opts.Observer = rec
	res, err := wavepipe.RunTransientCtx(context.Background(), sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	rc := wavepipe.ReplayTrace(rec.Events())
	if rc.Points != res.Stats.Points || rc.Solves != res.Stats.Solves ||
		rc.NRIters != res.Stats.NRIters || rc.LTERejects != res.Stats.LTERejects ||
		rc.ReuseHits != res.Stats.ReusedFactorizations || rc.ReuseHits == 0 {
		t.Fatalf("serial replay mismatch: %+v vs %+v", rc, res.Stats)
	}
}

// TestSnapshotsMetricsReplayAgree holds the three readers of one stream to
// one fold: every snapshot's counters equal a replay of the events before
// it, and live metrics fed the stream render the replay's counter rows.
// Forward adds the speculative warm-starts Backward does not emit.
func TestSnapshotsMetricsReplayAgree(t *testing.T) {
	for _, scheme := range []wavepipe.Scheme{wavepipe.Backward, wavepipe.Forward} {
		t.Run(scheme.String(), func(t *testing.T) {
			sys, opts := buildBench(t, "inv50")
			opts.Scheme = scheme
			rec := wavepipe.NewTraceRecorder(0)
			opts.Observer = rec
			if _, err := wavepipe.RunTransientCtx(context.Background(), sys, opts); err != nil {
				t.Fatal(err)
			}
			snapshotsMetricsReplayAgree(t, rec.Events(), rec.Snapshots())
		})
	}
}

func snapshotsMetricsReplayAgree(t *testing.T, events []wavepipe.TraceEvent, snaps []wavepipe.TraceSnapshot) {
	t.Helper()
	if len(snaps) < 2 {
		t.Fatalf("%d snapshots: the run is too short to check against", len(snaps))
	}
	for i, s := range snaps {
		n := 0
		for n < len(events) && events[n].Seq < s.Seq {
			n++
		}
		rc := wavepipe.ReplayTrace(events[:n])
		got := [6]int64{s.Points, s.Solves, s.NRIters, s.LTERejects, s.Discarded, s.Recoveries}
		want := [6]int64{int64(rc.Points), int64(rc.Solves), int64(rc.NRIters),
			int64(rc.LTERejects), int64(rc.Discarded), int64(rc.Recoveries)}
		if got != want {
			t.Fatalf("snapshot %d at seq %d counts %v, replay of the %d events before it %v", i, s.Seq, got, n, want)
		}
	}

	m := wavepipe.NewTraceMetrics()
	for _, ev := range events {
		m.OnEvent(ev)
	}
	var live, replayed bytes.Buffer
	if err := m.WritePrometheus(&live); err != nil {
		t.Fatal(err)
	}
	if err := wavepipe.ReplayTrace(events).WritePrometheus(&replayed); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(live.String(), replayed.String()) {
		t.Fatalf("live counter rows differ from the replay's:\n%s\nwant prefix\n%s", live.String(), replayed.String())
	}
}

// cancelAfter is an Observer that cancels a context after n accepted points.
type cancelAfter struct {
	n       int64
	accepts atomic.Int64
	cancel  context.CancelFunc
}

func (c *cancelAfter) OnEvent(ev wavepipe.TraceEvent) {
	if ev.Kind == wavepipe.TraceKindAccept && c.accepts.Add(1) == c.n {
		c.cancel()
	}
}

func (c *cancelAfter) OnSnapshot(wavepipe.TraceSnapshot) {}

// TestCancellationMidRun cancels a forward-scheme grid run from inside the
// event stream after ~10 accepted points and checks the contract: a partial
// waveform, a typed ErrCanceled, and no leaked worker goroutines.
func TestCancellationMidRun(t *testing.T) {
	before := runtime.NumGoroutine()

	sys, opts := buildBench(t, "grid16")
	opts.Scheme = wavepipe.Forward
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelAfter{n: 10, cancel: cancel}
	opts.Observer = obs

	res, err := wavepipe.RunTransientCtx(ctx, sys, opts)
	if !errors.Is(err, wavepipe.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	var se *wavepipe.SimError
	if !errors.As(err, &se) {
		t.Fatalf("cancellation should carry phase/time context, got %T", err)
	}
	if res == nil {
		t.Fatal("canceled run must return the partial result")
	}
	if res.Stats.Points < 10 {
		t.Fatalf("partial result has %d points, expected at least the 10 that triggered the cancel", res.Stats.Points)
	}
	if got := len(res.W.Times); got < 2 {
		t.Fatalf("partial waveform has %d samples", got)
	}
	if last := res.W.Times[len(res.W.Times)-1]; last >= opts.TStop {
		t.Fatalf("run claims to have finished (t=%g of %g) despite cancellation", last, opts.TStop)
	}

	// Engine workers are joined per stage, so none may outlive the run.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutine leak after cancellation: %d before, %d after", before, now)
	}
}

// TestCancellationSerial covers the serial engine's per-point poll.
func TestCancellationSerial(t *testing.T) {
	sys, opts := buildBench(t, "ladder400")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &cancelAfter{n: 5, cancel: cancel}
	opts.Observer = obs
	res, err := wavepipe.RunTransientCtx(ctx, sys, opts)
	if !errors.Is(err, wavepipe.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if res == nil || res.Stats.Points < 5 {
		t.Fatalf("partial result missing or too short: %+v", res)
	}
}

// TestTranOptionsValidation checks that nonsense option values fail loudly
// at the facade instead of flowing into the engines.
func TestTranOptionsValidation(t *testing.T) {
	sys, base := buildBench(t, "ladder400")
	cases := []struct {
		name string
		mut  func(*wavepipe.TranOptions)
		want string
	}{
		{"negative threads", func(o *wavepipe.TranOptions) { o.Threads = -1 }, "Threads"},
		{"absurd threads", func(o *wavepipe.TranOptions) { o.Threads = 4096 }, "Threads"},
		{"backward at three", func(o *wavepipe.TranOptions) { o.Scheme, o.Threads = wavepipe.Backward, 3 }, "Threads"},
	}
	for _, tc := range cases {
		opts := base
		tc.mut(&opts)
		_, err := wavepipe.RunTransientCtx(context.Background(), sys, opts)
		if err == nil {
			t.Fatalf("%s: expected an error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
	// A scheme at its own width is legal.
	opts := base
	opts.Scheme = wavepipe.Backward
	opts.Threads = 2
	if _, err := wavepipe.RunTransientCtx(context.Background(), sys, opts); err != nil {
		t.Fatalf("legal options rejected: %v", err)
	}
}

// TestMetricsObserverEndToEnd drives the live-metrics observer from a real
// run and spot-checks both exposition formats.
func TestMetricsObserverEndToEnd(t *testing.T) {
	sys, opts := buildBench(t, "ladder400")
	m := wavepipe.NewTraceMetrics()
	opts.Observer = m
	res, err := wavepipe.RunTransientCtx(context.Background(), sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Points(); got != int64(res.Stats.Points) {
		t.Fatalf("metrics points = %d, Stats = %d", got, res.Stats.Points)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wavepipe_points_total") {
		t.Fatalf("prometheus exposition missing counters:\n%s", buf.String())
	}
	buf.Reset()
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var flat map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &flat); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	if flat["wavepipe_points_total"] != float64(res.Stats.Points) {
		t.Fatalf("JSON points = %v, Stats = %d", flat["wavepipe_points_total"], res.Stats.Points)
	}
}
