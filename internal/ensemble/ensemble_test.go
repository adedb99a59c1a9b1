package ensemble

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/device"
	"wavepipe/internal/faults"
	"wavepipe/internal/trace"
	"wavepipe/internal/transient"
)

// ladderLanes builds k structurally identical RC ladders whose resistors
// are scaled by 1 + spread·i/k (spread 0 makes all lanes identical).
func ladderLanes(k, segments int, spread float64) []Lane {
	lanes := make([]Lane, k)
	for i := range lanes {
		c := circuits.RCLadder(segments)
		scale := 1 + spread*float64(i)/float64(k)
		for _, d := range c.Devices() {
			if r, ok := d.(*device.Resistor); ok {
				r.SetValue(r.Value() * scale)
			}
		}
		lanes[i] = Lane{Name: c.Title, Circ: c}
	}
	return lanes
}

func hostFor(t testing.TB, lanes []Lane) *circuit.System {
	sys, err := lanes[0].Circ.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// sameRun demands that got is want's run bit for bit: same accepted times,
// same sampled values, and the whole Stats but CriticalNanos (a clock reading)
// and the scheduling fields (they describe who ran it).
func sameRun(t *testing.T, tag string, got, want *transient.Result) {
	t.Helper()
	gw, ww := got.W, want.W
	if gw.Len() != ww.Len() {
		t.Fatalf("%s: %d points vs %d", tag, gw.Len(), ww.Len())
	}
	for p := range gw.Times {
		if gw.Times[p] != ww.Times[p] {
			t.Fatalf("%s point %d: t=%g vs %g", tag, p, gw.Times[p], ww.Times[p])
		}
		for j := range gw.Data[p] {
			if gw.Data[p][j] != ww.Data[p][j] {
				t.Fatalf("%s point %d signal %s: %g vs %g", tag, p, gw.Names[j], gw.Data[p][j], ww.Data[p][j])
			}
		}
	}
	g, w := got.Stats, want.Stats
	for _, st := range []*transient.Stats{&g, &w} {
		st.CriticalNanos = 0
		st.CoreBudget, st.PipelineWorkers, st.IntraWorkers, st.PipelineSerialized = 0, 0, 0, false
	}
	if g != w {
		t.Fatalf("%s: counters diverge:\n%+v\n%+v", tag, g, w)
	}
}

// Every lane's waveform must be bit-identical to its own independent
// serial run: same accepted times, same sampled values, same counters.
func TestLaneWaveformsMatchSerial(t *testing.T) {
	const k, segs = 5, 24
	base := transient.Options{TStop: 20e-9}

	lanes := ladderLanes(k, segs, 0.8)
	res, err := Run(hostFor(t, lanes), lanes, Options{Base: base, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lanes) != k {
		t.Fatalf("got %d lane results, want %d", len(res.Lanes), k)
	}

	serialLanes := ladderLanes(k, segs, 0.8)
	for i, lr := range res.Lanes {
		if lr.Err != nil {
			t.Fatalf("lane %d failed: %v", i, lr.Err)
		}
		sys, err := serialLanes[i].Circ.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := transient.Run(sys, base)
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, fmt.Sprintf("lane %d vs serial", i), lr.Res, want)
	}
	if res.Stats.CriticalNanos <= 0 {
		t.Fatal("aggregate critical path not measured")
	}
}

// Identical lanes must produce identical waveforms (one shared device set
// evaluated against per-lane state must not cross-contaminate lanes).
func TestIdenticalLanesAgree(t *testing.T) {
	lanes := ladderLanes(4, 16, 0)
	res, err := Run(hostFor(t, lanes), lanes, Options{Base: transient.Options{TStop: 10e-9}})
	if err != nil {
		t.Fatal(err)
	}
	ref := res.Lanes[0].Res.W
	for i, lr := range res.Lanes[1:] {
		if lr.Err != nil {
			t.Fatalf("lane %d failed: %v", i+1, lr.Err)
		}
		w := lr.Res.W
		if w.Len() != ref.Len() {
			t.Fatalf("lane %d: %d points vs lane 0's %d", i+1, w.Len(), ref.Len())
		}
		for p := range w.Times {
			if w.Times[p] != ref.Times[p] || w.Data[p][0] != ref.Data[p][0] {
				t.Fatalf("lane %d diverged from lane 0 at point %d", i+1, p)
			}
		}
	}
}

// A lane whose Newton solves are sabotaged to the recovery floor must
// retire with an error while the remaining lanes run to completion with
// waveforms unaffected by the dead lane.
func TestFaultedLaneRetiresWithoutStallingGang(t *testing.T) {
	const k = 4
	base := transient.Options{TStop: 10e-9}

	lanes := ladderLanes(k, 16, 0.5)
	lanes[1].Faults = faults.NewInjector(faults.Rule{
		Class: faults.NoConvergence,
		After: 1e-12, // spare the operating point
		Count: 1 << 20,
	})
	res, err := Run(hostFor(t, lanes), lanes, Options{Base: base, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lanes[1].Err == nil {
		t.Fatal("sabotaged lane did not fail")
	}
	if !errors.Is(res.Lanes[1].Err, faults.ErrStepTooSmall) {
		t.Fatalf("lane 1 error = %v, want ErrStepTooSmall", res.Lanes[1].Err)
	}
	if res.Lanes[1].Res == nil {
		t.Fatal("failed lane has no partial result")
	}

	serialLanes := ladderLanes(k, 16, 0.5)
	for _, i := range []int{0, 2, 3} {
		if res.Lanes[i].Err != nil {
			t.Fatalf("healthy lane %d failed: %v", i, res.Lanes[i].Err)
		}
		sys, err := serialLanes[i].Circ.Build()
		if err != nil {
			t.Fatal(err)
		}
		want, err := transient.Run(sys, base)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Lanes[i].Res.W
		if got.Len() != want.W.Len() {
			t.Fatalf("healthy lane %d: %d points vs serial %d", i, got.Len(), want.W.Len())
		}
		last := got.Len() - 1
		if got.Data[last][0] != want.W.Data[last][0] {
			t.Fatalf("healthy lane %d final sample diverged", i)
		}
	}
}

// Every lane's waveform and counters are independent of the gang's width and
// of which member happened to take the lane: the same lanes on gangs of 1, 2,
// K and more than K members, on real goroutines.
func TestLanesIndependentOfGangWidth(t *testing.T) {
	forceGang(t)
	const k, segs = 5, 16
	base := transient.Options{TStop: 10e-9}
	var ref *Result
	for _, workers := range []int{1, 2, k, k + 3} {
		lanes := ladderLanes(k, segs, 0.8)
		res, err := Run(hostFor(t, lanes), lanes, Options{Base: base, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if want := min(workers, k); res.Stats.PipelineWorkers != want {
			t.Fatalf("Workers %d: gang of %d, want %d", workers, res.Stats.PipelineWorkers, want)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i, lr := range res.Lanes {
			if lr.Err != nil {
				t.Fatalf("Workers %d lane %d: %v", workers, i, lr.Err)
			}
			sameRun(t, fmt.Sprintf("lane %d, gang of %d vs 1", i, workers), lr.Res, ref.Lanes[i].Res)
		}
	}
}

// A forced gang runs its members on real goroutines even on one CPU; under
// -race this exercises the lane deal — members pulling lanes off one counter
// and running them on workspaces of one shared host — for data races. The
// pool must not leak goroutines after Run returns.
func TestLaneGangRace(t *testing.T) {
	forceGang(t)
	before := runtime.NumGoroutine()
	lanes := ladderLanes(6, 12, 0.6)
	res, err := Run(hostFor(t, lanes), lanes, Options{
		Base:    transient.Options{TStop: 8e-9},
		Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, lr := range res.Lanes {
		if lr.Err != nil {
			t.Fatalf("lane %d failed: %v", i, lr.Err)
		}
		if v := lr.Res.W.Data[lr.Res.W.Len()-1][0]; math.IsNaN(v) {
			t.Fatalf("lane %d produced NaN", i)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); ; {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A structurally different lane circuit must be rejected at bind time.
func TestStructuralMismatchRejected(t *testing.T) {
	lanes := ladderLanes(2, 12, 0)
	lanes[1].Circ = circuits.RCLadder(13)
	_, err := Run(hostFor(t, lanes), lanes, Options{Base: transient.Options{TStop: 1e-9}})
	if err == nil {
		t.Fatal("mismatched lane accepted")
	}
}

// A lane runs under its host's Linear(): one Newton step per point, declared
// converged. A lane that puts a nonlinear model behind a linear host — here a
// voltage-controlled switch in the place, name and stamp footprint of a
// controlled source — must be refused at bind time, not iterated once.
func TestNonlinearLaneOfLinearHostRejected(t *testing.T) {
	mk := func(nonlinear bool) *circuit.Circuit {
		c := circuit.New("gm-stage")
		in, out := c.Node("in"), c.Node("out")
		c.Add(device.NewVSource("V1", in, circuit.Ground, device.Pulse{V2: 1, Rise: 1e-9, Width: 1}))
		c.Add(device.NewResistor("Rin", in, circuit.Ground, 1e3))
		c.Add(device.NewResistor("Rfb", out, in, 1e4)) // reserves (out,in): the switch's control stamps land on the source's
		c.Add(device.NewResistor("Rl", out, circuit.Ground, 1e3))
		c.Add(device.NewCapacitor("Cl", out, circuit.Ground, 1e-12))
		if nonlinear {
			c.Add(device.NewSwitch("G1", out, circuit.Ground, in, circuit.Ground, device.SwitchModel{VT: 0.5}))
		} else {
			c.Add(device.NewVCCS("G1", out, circuit.Ground, in, circuit.Ground, 1e-3))
		}
		return c
	}
	lanes := []Lane{{Name: "host", Circ: mk(false)}, {Name: "switch", Circ: mk(true)}}
	host := hostFor(t, lanes)
	if !host.Linear() {
		t.Fatal("the host is not linear")
	}
	if _, err := Run(host, lanes, Options{Base: transient.Options{TStop: 1e-9}}); err == nil {
		t.Fatal("a nonlinear lane was bound to a linear host")
	}
	// The other way round is harmless — a linear lane iterates under the
	// nonlinear host's ordinary convergence test — and stays admitted.
	lanes[0], lanes[1] = lanes[1], lanes[0]
	if _, err := Run(hostFor(t, lanes), lanes, Options{Base: transient.Options{TStop: 1e-9}}); err != nil {
		t.Fatalf("linear lane of a nonlinear host: %v", err)
	}
}

// cancelAt is an observer that cancels a context at a lane's n-th accepted
// point.
type cancelAt struct {
	lane   int16
	n      int
	cancel context.CancelFunc
}

func (c *cancelAt) OnEvent(ev trace.Event) {
	if ev.Kind == trace.KindAccept && ev.Worker == c.lane {
		if c.n--; c.n == 0 {
			c.cancel()
		}
	}
}
func (c *cancelAt) OnSnapshot(trace.Snapshot) {}

// Cancellation retires every lane — in flight or not yet dealt — with a typed
// ErrCanceled and a partial result, the run returns the ensemble's
// ErrCanceled, and its stream carries one KindCancel however many lanes saw
// the context end: before the first lane is dealt (nobody in flight), from
// inside lane 1 on a gang of one (lane 0 done, lanes 2–4 never started), and
// the same on a gang of two real goroutines, where who else is in flight is
// up to the scheduler.
func TestCancellationRetiresLanes(t *testing.T) {
	const k = 5
	for _, tc := range []struct {
		name    string
		atPoint int // cancel at lane 1's n-th accepted point; 0: before Run
		workers int
	}{{"before", 0, 2}, {"midrun", 3, 1}, {"midrun-gang", 3, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			forceGang(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rec := trace.NewRecorder(0)
			obs := trace.Observer(rec)
			if tc.atPoint == 0 {
				cancel()
			} else {
				obs = trace.Multi(rec, &cancelAt{lane: 1, n: tc.atPoint, cancel: cancel})
			}
			base := transient.Options{TStop: 10e-9, Ctx: ctx, Trace: trace.New(obs, 0)}
			lanes := ladderLanes(k, 12, 0.3)
			res, err := Run(hostFor(t, lanes), lanes, Options{Base: base, Workers: tc.workers})
			var se *faults.SimError
			if !errors.Is(err, faults.ErrCanceled) || !errors.As(err, &se) || se.Phase != "ensemble" {
				t.Fatalf("canceled run returned %v, want the ensemble's ErrCanceled", err)
			}
			if res == nil {
				t.Fatal("canceled run returned no result")
			}
			for i, lr := range res.Lanes {
				if lr.Res == nil || lr.Res.W == nil {
					t.Fatalf("lane %d has no partial result", i)
				}
				if lr.Err != nil && !errors.Is(lr.Err, faults.ErrCanceled) {
					t.Fatalf("lane %d: %v, want ErrCanceled", i, lr.Err)
				}
				// On a gang of one the deal is in order: lane 0 ran to TStop
				// before lane 1 started, lanes 2–4 were dealt after the end.
				var want error
				switch {
				case tc.atPoint == 0 || i == 1:
					want = faults.ErrCanceled
				case tc.workers > 1:
					continue
				case i > 1:
					want = faults.ErrCanceled
					if lr.Res.W.Len() != 0 {
						t.Fatalf("lane %d was dealt after the context ended and has %d points", i, lr.Res.W.Len())
					}
				}
				if !errors.Is(lr.Err, want) {
					t.Fatalf("lane %d: %v, want %v", i, lr.Err, want)
				}
			}
			if tc.atPoint > 0 && res.Lanes[1].Res.Stats.Points != tc.atPoint {
				t.Fatalf("lane 1 accepted %d points, canceled at its point %d", res.Lanes[1].Res.Stats.Points, tc.atPoint)
			}
			cancels, retires := 0, 0
			for _, ev := range rec.Events() {
				switch ev.Kind {
				case trace.KindCancel:
					cancels++
				case trace.KindLaneRetire:
					retires++
				}
			}
			if cancels != 1 || retires != k {
				t.Fatalf("%d KindCancel and %d KindLaneRetire events, want 1 and %d", cancels, retires, k)
			}
		})
	}
}

// Unsupported per-lane options must be rejected loudly.
func TestUnsupportedOptionsRejected(t *testing.T) {
	lanes := ladderLanes(1, 8, 0)
	host := hostFor(t, lanes)
	for name, base := range map[string]transient.Options{
		"onaccept": {TStop: 1e-9, OnAccept: func(float64, []float64) {}},
		"no-tstop": {},
	} {
		if _, err := Run(host, lanes, Options{Base: base}); err == nil {
			t.Fatalf("%s options accepted", name)
		}
	}
}

// BenchmarkEnsembleGrid16 guards what a lane allocates: a lane is a serial
// run, so allocs/lane is held to the allocations of transient.Run on the host
// plus a tenth (the gang, the deal and the result slice, shared by the lanes).
func BenchmarkEnsembleGrid16(b *testing.B) {
	const k = 8
	lanes := make([]Lane, k)
	for i := range lanes {
		c := circuits.PowerGridMesh(16, 1.8)
		for _, d := range c.Devices() {
			if r, ok := d.(*device.Resistor); ok {
				r.SetValue(r.Value() * (1 + 0.05*float64(i)))
			}
		}
		lanes[i] = Lane{Circ: c}
	}
	sys, err := lanes[0].Circ.Build()
	if err != nil {
		b.Fatal(err)
	}
	base := transient.Options{TStop: 20e-9}
	serial := testing.AllocsPerRun(1, func() {
		if _, err := transient.Run(sys, base); err != nil {
			b.Fatal(err)
		}
	})

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sys, lanes, Options{Base: base, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	perLane := float64(m1.Mallocs-m0.Mallocs) / float64(b.N*k)
	b.ReportMetric(perLane, "allocs/lane")
	if perLane > 1.1*serial {
		b.Fatalf("%.1f allocs/lane, a serial run of the host allocates %.0f", perLane, serial)
	}
}

// Every lane's slice of the event stream (Worker = lane index) must replay
// to that lane's own Stats by the rule a serial run's stream does — solves
// climbed on the recovery ladder and exact-reuse factorizations included.
func TestLaneTraceReplaysToLaneStats(t *testing.T) {
	const k = 3
	lanes := ladderLanes(k, 16, 0.5)
	// A burst of failures that outlasts step shrinking sends lane 1 to the
	// ladder, whose damping rung the rule spares.
	lanes[1].Faults = faults.NewInjector(faults.Rule{
		Class: faults.NoConvergence, After: 2e-9, Count: 40, SpareFrom: faults.StageDamping,
	})
	rec := trace.NewRecorder(0)
	base := transient.Options{TStop: 10e-9, Trace: trace.New(rec, 0)}
	res, err := Run(hostFor(t, lanes), lanes, Options{Base: base, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	perLane := make([][]trace.Event, k)
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindLaneRetire {
			continue
		}
		if ev.Worker < 0 || int(ev.Worker) >= k {
			t.Fatalf("event %v attributed to worker %d", ev.Kind, ev.Worker)
		}
		perLane[ev.Worker] = append(perLane[ev.Worker], ev)
	}
	for i, lr := range res.Lanes {
		if lr.Err != nil {
			t.Fatalf("lane %d failed: %v", i, lr.Err)
		}
		rc, st := trace.Replay(perLane[i]), lr.Res.Stats
		if rc.Points != st.Points || rc.Solves != st.Solves || rc.NRIters != st.NRIters ||
			rc.LTERejects != st.LTERejects || rc.Recoveries != st.Recoveries ||
			rc.ReuseHits != st.ReusedFactorizations {
			t.Errorf("lane %d: replay %+v does not reconcile with stats %+v", i, rc, st)
		}
		phases := 0
		for _, ev := range perLane[i] {
			if ev.Kind == trace.KindPhase && ev.Phase == trace.PhaseLTE {
				phases++
			}
		}
		if want := st.Points + st.LTERejects; phases != want {
			t.Errorf("lane %d: %d LTE phase events, want one per judged candidate (%d)", i, phases, want)
		}
	}
	if res.Lanes[1].Res.Stats.Recoveries == 0 {
		t.Fatal("the sabotaged lane never reached the recovery ladder: the test exercises nothing")
	}
}
