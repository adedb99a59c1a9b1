package wavepipe

import (
	"math"
	"slices"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/transient"
)

// pointBits is what a published point must keep while a history holds it.
type pointBits struct {
	t          float64
	x, q, qdot []uint64
}

func bitsOf(pt *integrate.Point) pointBits {
	b := pointBits{t: pt.T}
	for _, v := range [...]struct {
		dst *[]uint64
		src []float64
	}{{&b.x, pt.X}, {&b.q, pt.Q}, {&b.qdot, pt.Qdot}} {
		for _, f := range v.src {
			*v.dst = append(*v.dst, math.Float64bits(f))
		}
	}
	return b
}

func (b pointBits) equal(o pointBits) bool {
	return b.t == o.t && slices.Equal(b.x, o.x) && slices.Equal(b.q, o.q) && slices.Equal(b.qdot, o.qdot)
}

// recycleWatch follows one run stage by stage. After every stage it checks
// that each point the history held after the previous stage and still holds
// kept its bits, then snapshots the history again. It also names every point
// the stage let go of — by the path that let it go — and counts a path each
// time one of its points turns up again as a later stage's result, which only
// a point back in a solver's pool can do.
type recycleWatch struct {
	t      *testing.T
	name   string
	snap   map[*integrate.Point]pointBits
	rows   int                         // waveform rows before the stage
	freed  map[*integrate.Point]string // let go of, not yet seen again
	reused map[string]int              // per path, points seen again
	stages int
}

func (w *recycleWatch) visit(e *engine) {
	hist := e.s.Hist
	held := map[*integrate.Point]bool{}
	for i := 0; i < hist.Len(); i++ {
		pt := hist.At(i)
		held[pt] = true
		if old, ok := w.snap[pt]; ok && !old.equal(bitsOf(pt)) {
			w.t.Fatalf("%s stage %d: the history point at t=%g was overwritten (now t=%g) while the history held it",
				w.name, e.s.Stage, old.t, pt.T)
		}
	}
	var results []*integrate.Point
	if w.snap != nil { // a stage ran: e.p and e.res are its own
		p := &e.p
		for _, tg := range [...]target{p.main, p.back, p.fwd, p.fwdBack} {
			if tg.planned() && e.res[tg.solver].pt != nil {
				results = append(results, e.res[tg.solver].pt)
			}
		}
		for _, pt := range results {
			if path, ok := w.freed[pt]; ok {
				w.reused[path]++
				delete(w.freed, pt)
			}
		}
		// What the stage let go of, and why.
		committed := e.s.W.Times[w.rows:]
		main := &e.res[p.main.solver]
		discard := "discard"
		switch {
		case main.err != nil:
			discard = "failed-main"
		case !slices.Contains(committed, main.pt.T):
			discard = "reject"
		}
		left := "evict"
		if hist.Len() == 1 && len(committed) > 0 {
			left = "restart"
		}
		for _, pt := range results {
			if !slices.Contains(committed, pt.T) {
				w.freed[pt] = discard
			} else if !held[pt] {
				w.freed[pt] = left
			}
		}
		for pt := range w.snap {
			if !held[pt] {
				w.freed[pt] = left
			}
		}
		w.stages++
	}
	w.rows = len(e.s.W.Times)
	w.snap = map[*integrate.Point]pointBits{}
	for pt := range held {
		w.snap[pt] = bitsOf(pt)
	}
}

// TestRecycledPointsAreNeverStillHeld: the engine hands every point that
// leaves the history, and every candidate a stage discards, back to a
// solver's pool, where the next solve overwrites it. Run over every scheme
// on a linear mesh, an EKV chain (LTE rejections) and the bridge rectifier
// (breakpoint restarts), and under injected Newton failures and worker
// panics, no point may be overwritten while the history still holds it; and
// each way of letting a point go — a failed main point's backward partner, a
// rejected stage, a discarded candidate, a breakpoint restart — must
// actually have returned a point that a later solve reused.
func TestRecycledPointsAreNeverStillHeld(t *testing.T) {
	suite := map[string]circuits.Benchmark{}
	for _, b := range circuits.Suite() {
		suite[b.Name] = b
	}
	build := func(name string) (*circuit.System, float64) {
		b := suite[name]
		sys, err := b.Make().Build()
		if err != nil {
			t.Fatal(err)
		}
		return sys, b.TStop
	}
	type run struct {
		circuit string
		horizon float64 // fraction of the suite horizon
		faults  func(tstop float64) *faults.Injector
	}
	runs := []run{
		{circuit: "grid16", horizon: 1},
		{circuit: "ekv30", horizon: 1},
		{circuit: "rect1k", horizon: 0.25},
		{circuit: "ekv30", horizon: 0.5, faults: func(tstop float64) *faults.Injector {
			return faults.NewInjector(faults.Rule{
				Class: faults.NoConvergence, Site: faults.SiteNewton, After: 0.2 * tstop, Count: 12,
				SpareFrom: faults.StageDamping,
			})
		}},
		{circuit: "ekv30", horizon: 0.5, faults: func(tstop float64) *faults.Injector {
			return faults.NewInjector(faults.Rule{
				Class: faults.WorkerPanic, Site: faults.SiteWorker, After: 0.2 * tstop, Count: 12,
			})
		}},
	}
	reused := map[string]int{}
	for _, r := range runs {
		for _, scheme := range []Scheme{SchemeBackward, SchemeForward, SchemeCombined} {
			sys, tstop := build(r.circuit)
			tstop *= r.horizon
			opts := Options{Base: transient.Options{TStop: tstop}, Scheme: scheme}
			name := r.circuit + "/" + scheme.String()
			if r.faults != nil {
				opts.Base.Faults = r.faults(tstop)
				name += "/faulted"
			}
			w := &recycleWatch{t: t, name: name, freed: map[*integrate.Point]string{}, reused: map[string]int{}}
			if err := runStages(sys, opts, w.visit); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			t.Logf("%s: %d stages, reused %v", name, w.stages, w.reused)
			for path, n := range w.reused {
				reused[path] += n
			}
		}
	}
	for _, path := range []string{"failed-main", "reject", "discard", "restart", "evict"} {
		if reused[path] == 0 {
			t.Errorf("no point let go of by the %s path was seen reused: %v", path, reused)
		}
	}
}
