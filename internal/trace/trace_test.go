package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Active() {
		t.Fatal("nil tracer must report inactive")
	}
	// Must not panic.
	tr.Emit(Event{Kind: KindAccept, T: 1e-9})
	if got := New(nil, 0); got != nil {
		t.Fatalf("New(nil, ...) = %v, want nil", got)
	}
}

func TestTracerStampsAndCounts(t *testing.T) {
	rec := NewRecorder(0)
	tr := New(rec, 2)
	tr.Emit(Event{Kind: KindSolve, Iters: 3, T: 1e-9})
	tr.Emit(Event{Kind: KindAccept, T: 1e-9, H: 1e-9})
	tr.Emit(Event{Kind: KindSolve, Iters: 2, T: 2e-9})
	tr.Emit(Event{Kind: KindAccept, T: 2e-9, H: 1e-9}) // 2nd accept → snapshot
	tr.Emit(Event{Kind: KindLTEReject, T: 3e-9})
	tr.Emit(Event{Kind: KindDiscard, T: 3e-9})
	tr.Emit(Event{Kind: KindRecovery, T: 3e-9})
	tr.Emit(Event{Kind: KindPhase, Phase: PhaseDeviceLoad})
	tr.Emit(Event{Kind: KindPhase, Phase: PhaseFactor, Flags: FlagReused})

	evs := rec.Events()
	if len(evs) != 9 {
		t.Fatalf("got %d events, want 9", len(evs))
	}
	var lastSeq uint64
	for i, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Fatalf("event %d: seq %d not increasing past %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Wall < 0 {
			t.Fatalf("event %d: negative wall %d", i, ev.Wall)
		}
	}
	snaps := rec.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots, want 1 (cadence 2, 2 accepts)", len(snaps))
	}
	s := snaps[0]
	if s.Points != 2 || s.Solves != 2 || s.NRIters != 5 {
		t.Fatalf("snapshot counters wrong: %+v", s)
	}
	if s.Seq <= evs[3].Seq {
		t.Fatalf("snapshot seq %d must follow the accept that triggered it (%d)", s.Seq, evs[3].Seq)
	}

	c := Replay(evs)
	want := Counters{Points: 2, Solves: 2, NRIters: 5, LTERejects: 1, Discarded: 1, Recoveries: 1, ReuseHits: 1}
	if c != want {
		t.Fatalf("Replay = %+v, want %+v", c, want)
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	rec := NewRecorder(0)
	tr := New(rec, 1000)
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Emit(Event{Kind: KindSolve, Worker: int16(w), Iters: 1})
			}
		}(w)
	}
	wg.Wait()
	evs := rec.Events()
	if len(evs) != workers*per {
		t.Fatalf("got %d events, want %d", len(evs), workers*per)
	}
	seen := map[uint64]bool{}
	for _, ev := range evs {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

func TestRecorderRingWrap(t *testing.T) {
	rec := NewRecorder(4)
	tr := New(rec, 1<<30)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: KindSolve, Iters: int32(i)})
	}
	if rec.Len() != 4 {
		t.Fatalf("Len = %d, want 4", rec.Len())
	}
	if rec.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", rec.Dropped())
	}
	evs := rec.Events()
	for i, ev := range evs {
		if want := int32(6 + i); ev.Iters != want {
			t.Fatalf("ring kept wrong events: pos %d has iters %d, want %d", i, ev.Iters, want)
		}
	}
	rec.Reset()
	if rec.Len() != 0 || rec.Dropped() != 0 || len(rec.Snapshots()) != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of no observers must be nil")
	}
	a, b := NewRecorder(0), NewRecorder(0)
	if Multi(a) != Observer(a) {
		t.Fatal("Multi of one observer must return it unwrapped")
	}
	m := Multi(a, nil, b)
	m.OnEvent(Event{Kind: KindAccept})
	m.OnSnapshot(Snapshot{Points: 1})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("fan-out missed an observer: %d, %d", a.Len(), b.Len())
	}
	if len(a.Snapshots()) != 1 || len(b.Snapshots()) != 1 {
		t.Fatal("fan-out missed a snapshot")
	}
}

func TestKindPhaseWireNames(t *testing.T) {
	for k := KindPredict; k < kindCount; k++ {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Fatalf("kind %d roundtrip failed: %q → %v %v", k, k.String(), got, ok)
		}
	}
	for p := PhaseDeviceLoad; p < phaseCount; p++ {
		got, ok := PhaseFromString(p.String())
		if !ok || got != p {
			t.Fatalf("phase %d roundtrip failed: %q → %v %v", p, p.String(), got, ok)
		}
	}
	if _, ok := KindFromString("nope"); ok {
		t.Fatal("unknown kind must not parse")
	}
	if _, ok := PhaseFromString(""); ok {
		t.Fatal("empty phase must not parse")
	}
}

func sampleStream() ([]Event, []Snapshot) {
	rec := NewRecorder(0)
	tr := New(rec, 2)
	tr.Emit(Event{Kind: KindPredict, Iters: 2, T: 0.5e-9, Worker: 1, Stage: 3})
	tr.Emit(Event{Kind: KindSolve, Iters: 4, T: 1e-9, H: 1e-9, Norm: 0.25, Flags: FlagResumed})
	tr.Emit(Event{Kind: KindPhase, Phase: PhaseDeviceLoad, Dur: 1200, T: 1e-9})
	tr.Emit(Event{Kind: KindPhase, Phase: PhaseFactor, Dur: 400, T: 1e-9})
	tr.Emit(Event{Kind: KindPhase, Phase: PhaseFactor, Dur: 40, Flags: FlagReused, T: 1e-9})
	tr.Emit(Event{Kind: KindPhase, Phase: PhaseFactor, Dur: 40, Flags: FlagReused, T: 1e-9})
	tr.Emit(Event{Kind: KindAccept, T: 1e-9, H: 1e-9})
	tr.Emit(Event{Kind: KindLTEReject, T: 2e-9, Norm: 1.7})
	tr.Emit(Event{Kind: KindDiscard, T: 2e-9, Worker: 2})
	tr.Emit(Event{Kind: KindRecovery, T: 2e-9, Detail: "damping scale=0.2"})
	tr.Emit(Event{Kind: KindAccept, T: 2e-9, H: 0.5e-9})
	tr.Emit(Event{Kind: KindSerialFallback, T: 2e-9, Detail: "worker panic"})
	tr.Emit(Event{Kind: KindWorker, Worker: 0, Stage: 4, Dur: 900})
	tr.Emit(Event{Kind: KindCancel, T: 2.5e-9})
	return rec.Events(), rec.Snapshots()
}

func TestJSONLRoundtrip(t *testing.T) {
	events, snaps := sampleStream()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events, snaps); err != nil {
		t.Fatal(err)
	}
	// Every line must be standalone JSON.
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d is not valid JSON: %s", i+1, line)
		}
	}
	gotEv, gotSn, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotEv) != len(events) {
		t.Fatalf("got %d events, want %d", len(gotEv), len(events))
	}
	for i := range events {
		if gotEv[i] != events[i] {
			t.Fatalf("event %d mismatch:\n got %+v\nwant %+v", i, gotEv[i], events[i])
		}
	}
	if len(gotSn) != len(snaps) {
		t.Fatalf("got %d snapshots, want %d", len(gotSn), len(snaps))
	}
	for i := range snaps {
		if gotSn[i] != snaps[i] {
			t.Fatalf("snapshot %d mismatch:\n got %+v\nwant %+v", i, gotSn[i], snaps[i])
		}
	}
	if Replay(gotEv) != Replay(events) {
		t.Fatal("replay counts changed across the roundtrip")
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, _, err := ReadJSONL(strings.NewReader(`{"type":"event","kind":"bogus"}` + "\n")); err == nil {
		t.Fatal("unknown kind must error")
	}
	if _, _, err := ReadJSONL(strings.NewReader(`{"type":"mystery"}` + "\n")); err == nil {
		t.Fatal("unknown record type must error")
	}
	if _, _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed JSON must error")
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	events, snaps := sampleStream()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, snaps); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	var spans, instants, counters, metas int
	for _, e := range arr {
		switch e["ph"] {
		case "X":
			spans++
			if e["dur"].(float64) <= 0 {
				t.Fatalf("span with non-positive dur: %v", e)
			}
		case "i":
			instants++
		case "C":
			counters++
		case "M":
			metas++
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	if spans != 5 { // device-load, three factors, worker spans carry Dur
		t.Fatalf("got %d spans, want 5", spans)
	}
	if instants != len(events)-5 {
		t.Fatalf("got %d instants, want %d", instants, len(events)-5)
	}
	if counters != 2*len(snaps) {
		t.Fatalf("got %d counters, want %d", counters, 2*len(snaps))
	}
	if metas == 0 {
		t.Fatal("missing thread_name metadata")
	}
}

func TestMetricsObserver(t *testing.T) {
	m := NewMetrics()
	events, snaps := sampleStream()
	for _, ev := range events {
		m.OnEvent(ev)
	}
	for _, s := range snaps {
		m.OnSnapshot(s)
	}
	if m.Points() != 2 || m.Solves() != 1 {
		t.Fatalf("Points=%d Solves=%d, want 2, 1", m.Points(), m.Solves())
	}

	var prom bytes.Buffer
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"wavepipe_points_total 2",
		"wavepipe_solves_total 1",
		"wavepipe_nr_iters_total 6",
		"wavepipe_lte_rejects_total 1",
		"wavepipe_discarded_total 1",
		"wavepipe_recoveries_total 1",
		"wavepipe_serial_fallbacks_total 1",
		"wavepipe_cancels_total 1",
		"wavepipe_reuse_hits_total 2",
		"# TYPE wavepipe_points_total counter",
		"# TYPE wavepipe_step_size_seconds gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}

	var js bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var obj map[string]float64
	if err := json.Unmarshal(js.Bytes(), &obj); err != nil {
		t.Fatalf("metrics JSON invalid: %v\n%s", err, js.String())
	}
	if obj["wavepipe_points_total"] != 2 {
		t.Fatalf("metrics JSON points = %g, want 2", obj["wavepipe_points_total"])
	}
}

// TestMetricsConcurrentUse: one Metrics behind a tracer shared by several
// emitting goroutines, scraped while they run, ends on the exact totals.
func TestMetricsConcurrentUse(t *testing.T) {
	m := NewMetrics()
	tr := New(m, 16)
	var wg sync.WaitGroup
	const workers, per = 4, 300
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Emit(Event{Kind: KindSolve, Iters: 2})
				tr.Emit(Event{Kind: KindAccept, T: float64(i), H: 1})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			m.WritePrometheus(io.Discard)
			m.WriteJSON(io.Discard)
		}
	}()
	wg.Wait()
	<-done
	if m.Points() != workers*per || m.Solves() != workers*per {
		t.Fatalf("Points=%d Solves=%d, want %d each", m.Points(), m.Solves(), workers*per)
	}
}

func BenchmarkEmitNilTracer(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: KindSolve, Iters: 3})
	}
}

func BenchmarkEmitRecorder(b *testing.B) {
	rec := NewRecorder(1024)
	tr := New(rec, 1<<30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: KindSolve, Iters: 3})
	}
}
