package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"

	"wavepipe"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer's public function, or rebuilt from an engine trace event inside a
// run. Start and End are nanoseconds since the recorder's epoch.
type span struct {
	ID     int
	Parent int // 0 = root
	Run    int // per-run id shared by a run span and everything under it; 0 outside runs
	Layer  string
	Name   string
	Start  int64
	End    int64
	Lane   int // Chrome trace thread lane
}

// spans keeps every span of one traced pass in memory; it is written once,
// at exit, as Chrome trace JSON. A nil *spans records nothing, which is how
// the timed passes run.
type spans struct {
	mu     sync.Mutex
	epoch  time.Time
	list   []span
	runs   int
	events int // engine trace events received

	observers []*runObserver
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

func (s *spans) now() int64 { return time.Since(s.epoch).Nanoseconds() }

// begin opens a span and returns its id (0 on a nil recorder).
func (s *spans) begin(layer, name string, parent, run int) int {
	if s == nil {
		return 0
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Run: run, Layer: layer, Name: name, Start: now, End: now})
	return id
}

func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := s.now()
	s.mu.Lock()
	s.list[id-1].End = now
	s.mu.Unlock()
}

// newRun hands out the id that ties a run span to its children.
func (s *spans) newRun() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs++
	return s.runs
}

// maxRunEvents bounds how many of one run's engine events are kept as
// spans for the trace file (a lengthened rect1k run emits half a million);
// the layer budget is summed over every event regardless.
const maxRunEvents = 4000

// observer returns the engine observer that files a run's timed trace
// events under the run span, or nil on a nil recorder so that the engines
// keep their untraced fast path.
func (s *spans) observer(parent, run int) wavepipe.Observer {
	if s == nil {
		return nil
	}
	o := &runObserver{s: s, parent: parent, run: run}
	s.mu.Lock()
	s.observers = append(s.observers, o)
	s.mu.Unlock()
	return o
}

// budget is the layer budget of one run span: the summed durations of its
// phase events, the time its workers were busy, and its self time.
type budget struct {
	span, load, factor, trisolve, lte, busy float64
	// self is the run span minus the part of it that phase events cover:
	// step control, history, recording. Coverage is swept in the order the
	// events end, which is exact for a single-threaded run; where workers'
	// phases nest it undercounts, so self is then an upper bound.
	self float64
}

// runObserver turns the engine's KindPhase, KindWorker, KindCheckpoint and
// window events into child spans of one run span and sums them into the
// run's budget. Event clocks count from the run's own tracer, so the first
// event fixes the offset to the recorder's clock.
type runObserver struct {
	s           *spans
	parent, run int

	// Guarded by s.mu, like everything the events touch.
	started bool
	off     int64
	kept    int
	sums    [5]int64 // by TracePhase
	busy    int64
	covered int64
	hi      int64 // end of the latest phase swept
}

var phaseLayer = map[wavepipe.TracePhase]string{
	wavepipe.TracePhaseDeviceLoad: "circuit",
	wavepipe.TracePhaseFactor:     "sparse",
	wavepipe.TracePhaseTriSolve:   "sparse",
	wavepipe.TracePhaseLTE:        "integrate",
}

func (o *runObserver) OnEvent(ev wavepipe.TraceEvent) {
	now := o.s.now()
	o.s.mu.Lock()
	defer o.s.mu.Unlock()
	o.s.events++
	if !o.started {
		o.started, o.off = true, now-ev.Wall
	}
	end := o.off + ev.Wall
	start := end - ev.Dur
	var layer, name string
	switch ev.Kind {
	case wavepipe.TraceKindPhase:
		layer, name = phaseLayer[ev.Phase], "phase/"+ev.Phase.String()
		if int(ev.Phase) < len(o.sums) {
			o.sums[ev.Phase] += ev.Dur
		}
		if lo := max(start, o.hi); end > lo {
			o.covered += end - lo
			o.hi = end
		}
	case wavepipe.TraceKindWorker:
		layer, name = "wavepipe", "worker"
		o.busy += ev.Dur
	case wavepipe.TraceKindCheckpoint:
		layer, name = "checkpoint", "write"
	default:
		if k := ev.Kind.String(); strings.HasPrefix(k, "window-") {
			layer, name = "windows", k
		}
	}
	if layer != "" && o.kept < maxRunEvents {
		o.kept++
		o.s.list = append(o.s.list, span{
			ID: len(o.s.list) + 1, Parent: o.parent, Run: o.run,
			Layer: layer, Name: name, Start: start, End: end, Lane: int(ev.Worker) + 2,
		})
	}
}

func (o *runObserver) OnSnapshot(wavepipe.TraceSnapshot) {}

// budgets returns the layer budget of every observed run, keyed by the id
// of its run span.
func (s *spans) budgets() map[int]budget {
	out := map[int]budget{}
	if s == nil {
		return out
	}
	for _, o := range s.observers {
		sp := s.list[o.parent-1]
		b := budget{
			span:     sec(sp.End - sp.Start),
			load:     sec(o.sums[wavepipe.TracePhaseDeviceLoad]),
			factor:   sec(o.sums[wavepipe.TracePhaseFactor]),
			trisolve: sec(o.sums[wavepipe.TracePhaseTriSolve]),
			lte:      sec(o.sums[wavepipe.TracePhaseLTE]),
			busy:     sec(o.busy),
		}
		b.self = b.span - sec(o.covered)
		out[o.parent] = b
	}
	return out
}

func sec(ns int64) float64 { return float64(ns) / 1e9 }

// writeChrome writes the spans as Chrome trace_event JSON (open it in
// chrome://tracing or ui.perfetto.dev).
func (s *spans) writeChrome(path string) error {
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]ev, len(s.list))
	for i, sp := range s.list {
		evs[i] = ev{
			Name: sp.Name, Cat: sp.Layer, Ph: "X",
			Ts: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3,
			Pid: 1, Tid: sp.Lane,
			Args: map[string]int{"id": sp.ID, "parent": sp.Parent, "run": sp.Run},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
