package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
)

// Metrics is an Observer that maintains live run counters behind atomic
// loads, cheap enough to serve from an HTTP endpoint while the simulation
// is running. It keeps no event history — pair it with a Recorder when the
// stream itself is wanted.
type Metrics struct {
	points     atomic.Int64
	solves     atomic.Int64
	nrIters    atomic.Int64
	lteRejects atomic.Int64
	discarded  atomic.Int64
	recoveries atomic.Int64
	fallbacks  atomic.Int64
	cancels    atomic.Int64
	reuseHits  atomic.Int64
	events     atomic.Int64

	stepSize     atomic.Uint64 // float64 bits
	simTime      atomic.Uint64 // float64 bits
	pointsPerSec atomic.Uint64 // float64 bits
}

// NewMetrics returns an empty live-metrics observer.
func NewMetrics() *Metrics { return &Metrics{} }

// OnEvent updates the counters for one event.
func (m *Metrics) OnEvent(ev Event) {
	m.events.Add(1)
	switch ev.Kind {
	case KindAccept:
		m.points.Add(1)
		m.stepSize.Store(math.Float64bits(ev.H))
		m.simTime.Store(math.Float64bits(ev.T))
	case KindSolve:
		m.solves.Add(1)
		m.nrIters.Add(int64(ev.Iters))
	case KindPredict:
		m.nrIters.Add(int64(ev.Iters))
	case KindLTEReject:
		m.lteRejects.Add(1)
	case KindDiscard:
		m.discarded.Add(1)
	case KindRecovery:
		m.recoveries.Add(1)
	case KindSerialFallback:
		m.fallbacks.Add(1)
	case KindCancel:
		m.cancels.Add(1)
	case KindPhase:
		if ev.Phase == PhaseFactor && ev.Flags&FlagReused != 0 {
			m.reuseHits.Add(1)
		}
	}
}

// OnSnapshot records the latest throughput sample.
func (m *Metrics) OnSnapshot(s Snapshot) {
	m.pointsPerSec.Store(math.Float64bits(s.PointsPerSec))
}

// Counters are the monotonic counters Metrics keeps, as plain sums: a
// service that folds each finished run's totals into them renders the same
// rows Metrics does, without observing a single event.
type Counters struct {
	Points, Solves, NRIters, LTERejects, Discarded  int64
	Recoveries, SerialFallbacks, Cancels, ReuseHits int64
}

// metricRow is one exported metric; gauges carry float values, the rest are
// monotonic counters.
type metricRow struct {
	name, help string
	gauge      bool
	val        float64
}

// rows enumerates the counters under their stable names.
func (c Counters) rows() []metricRow {
	return []metricRow{
		{"wavepipe_points_total", "Accepted time points.", false, float64(c.Points)},
		{"wavepipe_solves_total", "Newton point solves attempted.", false, float64(c.Solves)},
		{"wavepipe_nr_iters_total", "Newton iterations, including speculative warm-starts.", false, float64(c.NRIters)},
		{"wavepipe_lte_rejects_total", "Truncation-error rejections.", false, float64(c.LTERejects)},
		{"wavepipe_discarded_total", "Speculative points thrown away.", false, float64(c.Discarded)},
		{"wavepipe_recoveries_total", "Recovery-ladder rescues.", false, float64(c.Recoveries)},
		{"wavepipe_serial_fallbacks_total", "Pipeline degradations to serial integration.", false, float64(c.SerialFallbacks)},
		{"wavepipe_cancels_total", "Context cancellations observed.", false, float64(c.Cancels)},
		{"wavepipe_reuse_hits_total", "Factorizations answered exactly by the LU in hand (unchanged matrix).", false, float64(c.ReuseHits)},
	}
}

// WritePrometheus renders the counters as Metrics renders them, without the
// event count and the three gauges of the most recent accept.
func (c Counters) WritePrometheus(w io.Writer) error { return writePrometheus(w, c.rows()) }

// metricRows enumerates the exported metrics with stable names: the counters,
// then the event count and the gauges.
func (m *Metrics) metricRows() []metricRow {
	f := func(u *atomic.Uint64) float64 { return math.Float64frombits(u.Load()) }
	c := Counters{
		Points: m.points.Load(), Solves: m.solves.Load(), NRIters: m.nrIters.Load(),
		LTERejects: m.lteRejects.Load(), Discarded: m.discarded.Load(), Recoveries: m.recoveries.Load(),
		SerialFallbacks: m.fallbacks.Load(), Cancels: m.cancels.Load(), ReuseHits: m.reuseHits.Load(),
	}
	return append(c.rows(),
		metricRow{"wavepipe_trace_events_total", "Trace events emitted.", false, float64(m.events.Load())},
		metricRow{"wavepipe_step_size_seconds", "Step size of the most recent accepted point.", true, f(&m.stepSize)},
		metricRow{"wavepipe_sim_time_seconds", "Simulation time of the most recent accepted point.", true, f(&m.simTime)},
		metricRow{"wavepipe_points_per_second", "Accept rate over the most recent snapshot window.", true, f(&m.pointsPerSec)},
	)
}

// WritePrometheus renders the counters in the Prometheus text exposition
// format (text/plain; version=0.0.4).
func (m *Metrics) WritePrometheus(w io.Writer) error { return writePrometheus(w, m.metricRows()) }

func writePrometheus(w io.Writer, rows []metricRow) error {
	bw := bufio.NewWriter(w)
	for _, r := range rows {
		typ := "counter"
		if r.gauge {
			typ = "gauge"
		}
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", r.name, r.help, r.name, typ, r.name, r.val)
	}
	return bw.Flush()
}

// WriteJSON renders the counters as a flat expvar-style JSON object.
func (m *Metrics) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{")
	for i, r := range m.metricRows() {
		if i > 0 {
			bw.WriteString(",")
		}
		fmt.Fprintf(bw, "\n  %q: %g", r.name, r.val)
	}
	bw.WriteString("\n}\n")
	return bw.Flush()
}

// Handler serves the metrics over HTTP: "/metrics" in Prometheus text
// format, "/vars" (and anything else) as expvar-style JSON.
func (m *Metrics) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		m.WritePrometheus(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		m.WriteJSON(w)
	})
	return mux
}

// Points returns the accepted-point count so far.
func (m *Metrics) Points() int64 { return m.points.Load() }

// Solves returns the Newton point-solve count so far.
func (m *Metrics) Solves() int64 { return m.solves.Load() }
