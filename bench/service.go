package main

import (
	"context"
	"embed"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"wavepipe"
	"wavepipe/client"
	"wavepipe/internal/server"
)

// The five small decks are copies of testdata/*.sp, kept here so that the
// job mix stays what it is when the test data changes; grid16 is rendered
// from its generator.
//
//go:embed decks/*.sp
var deckFS embed.FS

// svcDeck is one deck of the job mix. Cold jobs resubmit it with the last
// field of the line that starts with coldLine scaled by a factor within
// 1e-4 of one: enough to change the canonical hash, too little to move the
// waveform off the unperturbed reference.
type svcDeck struct {
	name, probe string
	text        string
	coldLine    string
	coldValue   float64

	head, tail string // text before and after the cold value
	deck       *wavepipe.Deck
	ref        *wavepipe.Result
}

// Each pass submits every deck this many times warm and this many cold.
const jobsPerDeckKind = 2

type serviceWL struct {
	nproc int
	dir   string
	rng   *rand.Rand
	cold  int64 // next cold perturbation step
	decks []*svcDeck

	svc *wavepipe.Service
	srv *httptest.Server
	cl  *client.Client
}

func newServiceHTTP(seed int64, nproc int, dir string) (*serviceWL, error) {
	w := &serviceWL{nproc: nproc, dir: filepath.Join(dir, "service"), rng: rand.New(rand.NewSource(seed))}
	// Seeds start their perturbation steps far apart, so no two runs submit
	// the same cold deck.
	w.cold = 1 + (seed%1000)*1000
	small := []svcDeck{
		{name: "cmos_latch", probe: "q", coldLine: "CQ ", coldValue: 5e-15},
		{name: "ecl_gate", probe: "out", coldLine: "CL ", coldValue: 100e-15},
		{name: "flyback", probe: "out", coldLine: "RO ", coldValue: 1e3},
		{name: "opamp_filter", probe: "out", coldLine: "R1 ", coldValue: 10e3},
		{name: "subckt_filter", probe: "out", coldLine: "R1 ", coldValue: 1e3},
	}
	for i := range small {
		b, err := deckFS.ReadFile("decks/" + small[i].name + ".sp")
		if err != nil {
			return nil, err
		}
		small[i].text = string(b)
		w.decks = append(w.decks, &small[i])
	}
	g := suiteUnit("grid16", 1)
	text, err := deckText(g.gen(), g.tstop)
	if err != nil {
		return nil, err
	}
	w.decks = append(w.decks, &svcDeck{name: "grid16", probe: g.probe, text: text, coldLine: "Rpkg0 ", coldValue: 0.05})
	for _, d := range w.decks {
		if err := d.split(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// split finds the cold line and cuts the text around its last field.
func (d *svcDeck) split() error {
	off := 0
	for _, line := range strings.SplitAfter(d.text, "\n") {
		if strings.HasPrefix(line, d.coldLine) {
			body := strings.TrimRight(line, "\r\n")
			cut := strings.LastIndexByte(body, ' ') + 1
			d.head, d.tail = d.text[:off+cut], d.text[off+len(body):]
			return nil
		}
		off += len(line)
	}
	return fmt.Errorf("deck %s: no line starts with %q", d.name, d.coldLine)
}

func (d *svcDeck) coldText(step int64) string {
	v := d.coldValue * (1 + 1e-8*float64(step))
	return d.head + strconv.FormatFloat(v, 'g', -1, 64) + d.tail
}

func (w *serviceWL) counts() (passes, setupReps int) { return 18, 4000 }

// setup starts a fresh service behind a loopback HTTP listener; the clock
// covers NewService up to the listener accepting connections.
func (w *serviceWL) setup(sp *spans, parent int) (setupTimes, error) {
	w.close()
	var st setupTimes
	if err := os.RemoveAll(w.dir); err != nil {
		return st, err
	}
	t0 := time.Now()
	id := sp.begin("service", "NewService", parent, 0)
	svc, err := wavepipe.NewService(wavepipe.ServiceConfig{Cores: w.nproc, CacheSize: 32, Dir: w.dir})
	sp.end(id)
	if err != nil {
		return st, err
	}
	id = sp.begin("server", "listen", parent, 0)
	w.svc = svc
	w.srv = httptest.NewServer(server.New(server.Config{Client: svc, Metrics: svc.WritePrometheus}))
	sp.end(id)
	st.total = time.Since(t0)
	w.cl, err = client.New(w.srv.URL, w.srv.Client())
	return st, err
}

func (w *serviceWL) close() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.svc != nil {
		w.svc.Close()
		w.svc = nil
	}
	os.RemoveAll(w.dir)
}

func (w *serviceWL) references(ctx context.Context) error {
	for _, d := range w.decks {
		var err error
		if d.deck, err = wavepipe.ParseDeck(d.text); err != nil {
			return fmt.Errorf("deck %s: %w", d.name, err)
		}
		if d.ref, err = wavepipe.RunDeckCtx(ctx, d.deck, tightOpts(wavepipe.TranOptions{})); err != nil {
			return fmt.Errorf("deck %s reference: %w", d.name, err)
		}
	}
	return nil
}

type jobSpec struct {
	d    *svcDeck
	cold bool
	text string
}

// pass submits a seeded shuffle of warm and cold jobs from nproc closed-loop
// clients, each job Submit → drain Stream → Wait, and then runs every deck
// once in process as the base of service.overhead_ratio.
func (w *serviceWL) pass(ctx context.Context, sp *spans, parent, p int) passResult {
	var jobs []jobSpec
	for _, d := range w.decks {
		for k := 0; k < jobsPerDeckKind; k++ {
			jobs = append(jobs, jobSpec{d: d, text: d.text})
			jobs = append(jobs, jobSpec{d: d, cold: true, text: d.coldText(w.cold)})
			w.cold++
		}
	}
	w.rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	out := make([]sample, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	cpu0, t0 := cpuTime(), time.Now()
	for c := 0; c < w.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = w.job(ctx, sp, parent, jobs[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	// Jobs overlap, so the batch is clocked as a whole.
	res := passResult{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	res.busy = res.wall

	for _, d := range w.decks {
		s := sample{unit: d.name, cfg: "inprocess", lane: -1}
		cpu0, t0 := cpuTime(), time.Now()
		r, err := wavepipe.RunDeckCtx(ctx, d.deck, wavepipe.TranOptions{})
		s.wall, s.cpu, s.err = time.Since(t0), cpuTime()-cpu0, err
		if r != nil {
			s.stats = r.Stats
		}
		out = append(out, s)
	}
	res.samples = out
	return res
}

func (w *serviceWL) job(ctx context.Context, sp *spans, parent int, j jobSpec) sample {
	s := sample{unit: j.d.name, cfg: "warm", timed: true, lane: -1, cold: j.cold}
	if j.cold {
		s.cfg = "cold"
	}
	run := sp.newRun()
	s.span = sp.begin("service", "job", parent, run)
	defer sp.end(s.span)
	cpu0, t0 := cpuTime(), time.Now()

	id := sp.begin("client", "Submit", s.span, run)
	st, err := w.cl.Submit(ctx, wavepipe.JobSpec{Deck: j.text})
	sp.end(id)
	s.submit = time.Since(t0)
	if err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}
	s.hit = st.CacheHit

	id = sp.begin("client", "Stream", s.span, run)
	ch, err := w.cl.Stream(ctx, st.ID)
	if err != nil {
		sp.end(id)
		s.err = fmt.Errorf("stream: %w", err)
		return s
	}
	var pts []wavepipe.StreamPoint
	for pt := range ch {
		if len(pts) == 0 {
			s.first = time.Since(t0)
		}
		pts = append(pts, pt)
	}
	sp.end(id)
	s.stream = time.Since(t0) - s.submit

	id = sp.begin("client", "Wait", s.span, run)
	tw := time.Now()
	res, err := w.cl.Wait(ctx, st.ID)
	sp.end(id)
	s.wait = time.Since(tw)
	s.wall, s.cpu = time.Since(t0), cpuTime()-cpu0
	if err != nil {
		s.err = fmt.Errorf("wait: %w", err)
		return s
	}
	s.stats, s.lanePts = res.Stats, len(pts)
	if err := checkStream(pts, res); err != nil {
		s.err = err
		return s
	}
	if s.dev, err = deviation(res, j.d.ref, j.d.probe); err != nil {
		s.err = fmt.Errorf("compare: %w", err)
	} else if s.dev > accuracyBar {
		s.err = fmt.Errorf("deviates %.4f from the reference, over the %.2f bar", s.dev, accuracyBar)
	}
	return s
}

// checkStream holds a drained stream to the contract: every accepted point
// once, in time order, equal to the rows of the returned Result.
func checkStream(pts []wavepipe.StreamPoint, res *wavepipe.Result) error {
	if res == nil || res.W == nil {
		return fmt.Errorf("no result waveform")
	}
	if len(pts) != res.W.Len() {
		return fmt.Errorf("stream has %d points, result %d", len(pts), res.W.Len())
	}
	for i, pt := range pts {
		if i > 0 && !(pt.T > pts[i-1].T) {
			return fmt.Errorf("stream point %d at t=%g follows t=%g", i, pt.T, pts[i-1].T)
		}
		if pt.T != res.W.Times[i] {
			return fmt.Errorf("stream point %d at t=%g, result row at t=%g", i, pt.T, res.W.Times[i])
		}
		row := res.W.Data[i]
		if len(pt.Values) != len(row) {
			return fmt.Errorf("stream point %d has %d values, result row %d", i, len(pt.Values), len(row))
		}
		for k, v := range pt.Values {
			if v != row[k] {
				return fmt.Errorf("stream point %d column %d is %g, result has %g", i, k, v, row[k])
			}
		}
	}
	return nil
}
