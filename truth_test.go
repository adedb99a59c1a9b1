package wavepipe

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"wavepipe/internal/circuit"
	"wavepipe/internal/circuits"
	"wavepipe/internal/device"
	"wavepipe/internal/integrate"
	"wavepipe/internal/transient"
)

// Truth: every run is judged against a fixed-step reference, a serial run
// with truncation-error control off and every step T/N. It shares no step
// control with the adaptive engines it judges — no LTE test, no step ladder,
// no restart heuristics beyond landing on breakpoints — so a defect of those
// cannot hide in it. The reference of a circuit is its run at 2N; the run at
// N must agree with it to truthConvergence of the probe's range, which is
// what makes 2N a reference at all.

// truthSteps is each suite circuit's N. A mesh's fixed step costs a triangular
// solve against one stored factor, a chain's one Newton solve; the counts keep
// the N and 2N runs of all twelve circuits to a few seconds.
var truthSteps = map[string]int{
	"grid16":    14000,
	"grid24":    11000,
	"grid32":    9000,
	"ladder400": 4000,
	"rlctree8":  14000,
	"rect1k":    10000,
	"amp10M":    10000,
	"ring9":     10000,
	"inv50":     10000,
	"nand5":     8000,
	"ekv30":     8000,
	"ecl8":      10000,
}

// truthConvergence bounds the deviation of the N-step reference from the
// 2N-step one, as a fraction of the probe's range.
const truthConvergence = 1e-3

// truthBar is the accuracy a run must reach against its reference: 5 % of the
// probe's range. truthFindings names the rows known to miss it, each with the
// bar it is held to instead; they are findings (EXPERIMENTS.md F2), not fixed
// here, and a row that drifts past even that bar fails. Their causes, read
// from truthShape:
//   - windows8-gate32/grid16 (TestWindowsGrid16GateRows): at gate 32 and
//     W = 8 a coarse seed the gate accepts carries 6.4 % into the run where
//     serial and every other row read 3.6 %;
//   - ring9, every engine: the oscillator's phase drifts, 20–26 ps at the
//     worst crossing against an amplitude error of 0.2–0.3 %;
//   - rlctree8, every engine: Gear-2 damps the tree's ringing (2.6 % of range
//     at its extremes; TestTruthLCTankEnergy), and its phase follows.
const truthBar = 0.05

var truthFindings = map[string]float64{
	"windows8-gate32/grid16": 0.08,
	"backward2/ring9":        0.08,
	"serial/ring9":           0.08,
	"forward2/ring9":         0.08,
	"serial/rlctree8":        0.09,
	"backward2/rlctree8":     0.09,
	"forward2/rlctree8":      0.09,
}

// fixedStep runs c serially over [0, tstop] in n steps of tstop/n, recording
// the probe only.
func fixedStep(t testing.TB, c *circuit.Circuit, tstop float64, n int, probe string) *transient.Result {
	t.Helper()
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := c.FindNode(probe)
	if !ok {
		t.Fatalf("no probe node %q", probe)
	}
	h := tstop / float64(n)
	ctrl := integrate.DefaultControl(tstop)
	ctrl.HMax = h
	res, err := transient.Run(sys, transient.Options{
		TStop: tstop, NoLTE: true, HInit: h, Control: ctrl, Record: []int{idx},
		MaxPoints: 4 * n,
	})
	if err != nil {
		t.Fatalf("fixed-step reference (N=%d): %v", n, err)
	}
	return res
}

// truthCase is one circuit a reference is made for: a suite circuit, or a
// variant of one (an ensemble lane's scaled resistors).
type truthCase struct {
	key   string
	make  func() *circuit.Circuit
	tstop float64
	probe string
	n     int
}

func suiteTruthCase(b circuits.Benchmark) truthCase {
	return truthCase{key: b.Name, make: b.Make, tstop: b.TStop, probe: b.Probe, n: truthSteps[b.Name]}
}

// truthRefs memoizes the 2N references of a test binary's run: the
// convergence test and the table share them.
var truthRefs struct {
	sync.Mutex
	m map[string]*Set
}

// truthReference returns the 2N-step reference of tc.
func truthReference(t testing.TB, tc truthCase) *Set {
	t.Helper()
	truthRefs.Lock()
	defer truthRefs.Unlock()
	if w := truthRefs.m[tc.key]; w != nil {
		return w
	}
	w := fixedStep(t, tc.make(), tc.tstop, 2*tc.n, tc.probe).W
	if truthRefs.m == nil {
		truthRefs.m = map[string]*Set{}
	}
	truthRefs.m[tc.key] = w
	return w
}

// truthDeviation is the one measure of a run's accuracy: the largest
// deviation of its probe from tc's 2N-step reference, sampled on both time
// grids and relative to the reference's range (the measure behind max_dev).
func truthDeviation(t testing.TB, tc truthCase, w *Set) float64 {
	t.Helper()
	d, err := Compare(w, truthReference(t, tc), tc.probe)
	if err != nil {
		t.Fatal(err)
	}
	return d.RelMax()
}

// truthShape splits a run's deviation from tc's reference into its two
// causes: shift is the worst time shift of a mid-range crossing (each of the
// reference's crossings of the middle of its range against the run's nearest
// one; +Inf when the run never crosses), and amp the worst amplitude error —
// between two neighbouring reference crossings, the run's extreme against the
// reference's on the reference's time grid, relative to the range. A row
// whose deviation is the probe's slope times shift is late or early, not
// wrong in level.
func truthShape(t testing.TB, tc truthCase, w *Set) (shift, amp float64) {
	t.Helper()
	ref := truthReference(t, tc)
	lo, hi, err := ref.Extremes(tc.probe)
	if err != nil {
		t.Fatal(err)
	}
	mid := (lo + hi) / 2
	rc, _ := ref.CrossingTimes(tc.probe, mid, 0)
	wc, err := w.CrossingTimes(tc.probe, mid, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rc {
		near := math.Inf(1)
		for _, d := range wc {
			near = math.Min(near, math.Abs(d-c))
		}
		shift = math.Max(shift, near)
	}
	j := ref.SignalIndex(tc.probe)
	k := 0
	for _, end := range append(rc, math.Inf(1)) {
		refLo, refHi := math.Inf(1), math.Inf(-1)
		runLo, runHi := refLo, refHi
		for ; k < len(ref.Times) && ref.Times[k] < end; k++ {
			v, _ := w.At(tc.probe, ref.Times[k])
			refLo, refHi = math.Min(refLo, ref.Data[k][j]), math.Max(refHi, ref.Data[k][j])
			runLo, runHi = math.Min(runLo, v), math.Max(runHi, v)
		}
		switch {
		case math.IsInf(refLo, 1): // no sample before the next crossing
		case refHi-mid > mid-refLo:
			amp = math.Max(amp, math.Abs(runHi-refHi))
		default:
			amp = math.Max(amp, math.Abs(runLo-refLo))
		}
	}
	return shift, amp / (hi - lo)
}

// siTime formats a duration with the prefix that suits it.
func siTime(d float64) string {
	for _, u := range []struct {
		scale float64
		unit  string
	}{{1e-12, "ps"}, {1e-9, "ns"}, {1e-6, "µs"}, {1e-3, "ms"}} {
		if d < 1000*u.scale {
			return fmt.Sprintf("%.3g %s", d/u.scale, u.unit)
		}
	}
	return fmt.Sprintf("%.3g s", d)
}

// checkHeldAfterRestarts holds a run on a nonlinear circuit to the one step
// rule every engine sizes its step by (transient.Stepper.Land): after the
// start and after every restart on a breakpoint the step stays at the
// restart step until the history holds the order+2 points of the LTE
// stencil. The second point's step repeats the first's exactly; the third
// point was planned at it too, and an LTE rejection can only shorten it. A
// restart whose first three points reach the next breakpoint is not judged.
// It returns the number of restarts judged.
func checkHeldAfterRestarts(t *testing.T, key string, sys *circuit.System, w *Set) int {
	t.Helper()
	restarts := []float64{0}
	for _, d := range sys.Circuit.Devices() {
		if b, ok := d.(transient.Breakpointer); ok {
			restarts = append(restarts, b.Breakpoints(w.Times[len(w.Times)-1])...)
		}
	}
	sort.Float64s(restarts)
	judged := 0
	for _, tb := range restarts {
		k, found := slices.BinarySearch(w.Times, tb)
		if !found || k+3 >= len(w.Times) {
			continue
		}
		t1, t2, t3 := w.Times[k+1], w.Times[k+2], w.Times[k+3]
		if i, _ := slices.BinarySearch(restarts, math.Nextafter(tb, math.Inf(1))); i < len(restarts) && restarts[i] <= t3 {
			continue
		}
		h := t1 - tb
		if math.Abs(t2-t1-h) > 1e-9*h || t3-t2 > (1+1e-9)*h {
			t.Errorf("%s: after the restart at t=%g the steps are %g, %g, %g; the hold keeps the second at the first and the third no longer",
				key, tb, h, t2-t1, t3-t2)
		}
		judged++
	}
	return judged
}

// skipTruth skips the full-horizon reference runs under -short.
func skipTruth(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-horizon fixed-step references")
	}
}

// TestFixedStepReferencesConverge: on every suite circuit the N-step run
// agrees with the 2N-step one to truthConvergence of the probe's range.
func TestFixedStepReferencesConverge(t *testing.T) {
	skipTruth(t)
	for _, b := range circuits.Suite() {
		tc := suiteTruthCase(b)
		t.Run(b.Name, func(t *testing.T) {
			coarse := fixedStep(t, tc.make(), tc.tstop, tc.n, tc.probe)
			if d := truthDeviation(t, tc, coarse.W); d > truthConvergence {
				t.Errorf("N=%d deviates %.3g%% from N=%d, over %.3g%%", tc.n, 100*d, 2*tc.n, 100*truthConvergence)
			} else {
				t.Logf("N=%d vs %d: %.4f%%", tc.n, 2*tc.n, 100*d)
			}
		})
	}
}

// TestTruthTable is the accuracy table of EXPERIMENTS.md F2: the deviation of
// serial, backward2 and forward2 from the fixed-step reference on every suite
// circuit, each row held to truthBar or to its finding's bar, beside its worst
// crossing shift and amplitude error (truthShape). Every run of a nonlinear
// circuit is held to the step rule after a restart (checkHeldAfterRestarts).
func TestTruthTable(t *testing.T) {
	skipTruth(t)
	configs := []struct {
		name string
		opts TranOptions
	}{
		{"serial", TranOptions{}},
		{"backward2", TranOptions{Scheme: Backward}},
		{"forward2", TranOptions{Scheme: Forward}},
	}
	var table strings.Builder
	table.WriteString("| circuit | N | serial | backward2 | forward2 |\n|---|---|---|---|---|\n")
	var shapes strings.Builder
	shapes.WriteString("| circuit | serial | backward2 | forward2 |\n|---|---|---|---|\n")
	for _, b := range circuits.Suite() {
		tc := suiteTruthCase(b)
		fmt.Fprintf(&table, "| %s | %d |", b.Name, tc.n)
		fmt.Fprintf(&shapes, "| %s |", b.Name)
		for _, cfg := range configs {
			key := cfg.name + "/" + b.Name
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			opts := cfg.opts
			opts.TStop = b.TStop
			res, err := RunTransientCtx(context.Background(), sys, opts)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if !sys.Linear() && checkHeldAfterRestarts(t, key, sys, res.W) == 0 {
				t.Errorf("%s: no restart judged by the hold", key)
			}
			d := truthDeviation(t, tc, res.W)
			bar, finding := truthFindings[key]
			if !finding {
				bar = truthBar
			}
			if d > bar {
				t.Errorf("%s deviates %.2f%% from its reference, over its %.0f%% bar", key, 100*d, 100*bar)
			}
			fmt.Fprintf(&table, " %.3f %% |", 100*d)
			shift, amp := truthShape(t, tc, res.W)
			fmt.Fprintf(&shapes, " %s, %.3f %% |", siTime(shift), 100*amp)
		}
		table.WriteString("\n")
		shapes.WriteString("\n")
	}
	t.Logf("deviation from the 2N fixed-step reference, %% of the probe's range:\n%s", table.String())
	t.Logf("worst mid-range crossing shift, amplitude error in %% of the probe's range:\n%s", shapes.String())
}

// The closed forms: three circuits whose answer is known without a
// simulator, against the fixed-step reference and the serial engine.

// closedFormRun runs c serially from the initial conditions ic (UIC): at N
// fixed steps when n > 0, else adaptively.
func closedFormRun(t *testing.T, c *circuit.Circuit, tstop float64, n int, ic map[string]float64, probe string) *Set {
	t.Helper()
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := c.FindNode(probe)
	opts := transient.Options{TStop: tstop, UIC: true, IC: map[int]float64{}, Record: []int{idx}}
	for name, v := range ic {
		i, ok := c.FindNode(name)
		if !ok {
			t.Fatalf("no node %q", name)
		}
		opts.IC[i] = v
	}
	if n > 0 {
		h := tstop / float64(n)
		opts.NoLTE, opts.HInit = true, h
		opts.Control = integrate.DefaultControl(tstop)
		opts.Control.HMax = h
	}
	res, err := transient.Run(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.W
}

// TestTruthSinglePoleRC: a 1 V step through R into C is 1 − e^(−t/RC).
func TestTruthSinglePoleRC(t *testing.T) {
	const r, cap = 1e3, 1e-12
	tau := r * cap
	c := circuit.New("rc")
	in, out := c.Node("in"), c.Node("out")
	c.Add(device.NewVSource("V1", in, circuit.Ground, device.DC(1)))
	c.Add(device.NewResistor("R1", in, out, r))
	c.Add(device.NewCapacitor("C1", out, circuit.Ground, cap))
	for _, run := range []struct {
		name string
		n    int
		bar  float64
	}{{"fixed", 2000, truthConvergence}, {"serial", 0, truthBar}} {
		w := closedFormRun(t, c, 5*tau, run.n, map[string]float64{"in": 1}, "out")
		worst := 0.0
		for k, tm := range w.Times {
			worst = math.Max(worst, math.Abs(w.Data[k][0]-(1-math.Exp(-tm/tau))))
		}
		t.Logf("%s: %d points, max |v − (1 − e^(−t/RC))| = %.3g V", run.name, len(w.Times), worst)
		if worst > run.bar {
			t.Errorf("%s deviates %.3g V from the closed form, over %.3g", run.name, worst, run.bar)
		}
	}
}

// TestTruthLCTankEnergy: an ideal LC tank charged to 1 V keeps its energy
// ½CV² + ½LI² over ten periods; what the integrator loses is its numerical
// damping alone. Gear2 damps: at the ≈ 38 points a period the adaptive serial
// engine takes, the tank loses 17 % of its energy in ten periods, a finding
// (EXPERIMENTS.md F2) held to a 20 % bar rather than truthBar.
func TestTruthLCTankEnergy(t *testing.T) {
	const l, cap = 1e-9, 1e-12
	period := 2 * math.Pi * math.Sqrt(l*cap)
	c := circuit.New("lc")
	top := c.Node("top")
	c.Add(device.NewInductor("L1", top, circuit.Ground, l))
	c.Add(device.NewCapacitor("C1", top, circuit.Ground, cap))
	sys, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	iL := sys.NumNodes // the inductor's branch current
	for _, run := range []struct {
		name string
		n    int
		bar  float64
	}{{"fixed", 20000, truthConvergence}, {"serial", 0, 0.20}} {
		opts := transient.Options{TStop: 10 * period, UIC: true, IC: map[int]float64{0: 1}, Record: []int{0, iL}}
		if run.n > 0 {
			h := opts.TStop / float64(run.n)
			opts.NoLTE, opts.HInit = true, h
			opts.Control = integrate.DefaultControl(opts.TStop)
			opts.Control.HMax = h
		}
		res, err := transient.Run(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		e0 := 0.5 * cap
		last := res.W.Data[len(res.W.Times)-1]
		e := 0.5*cap*last[0]*last[0] + 0.5*l*last[1]*last[1]
		loss := 1 - e/e0
		t.Logf("%s: %d points, energy lost over ten periods %.3g%%", run.name, len(res.W.Times), 100*loss)
		if math.Abs(loss) > run.bar {
			t.Errorf("%s loses %.3g%% of the tank's energy, over %.3g%%", run.name, 100*loss, 100*run.bar)
		}
	}
}

// TestTruthRCLadderElmoreDelay: the far end of a uniform RC ladder of n
// sections, stepped at its near end, is a sum of n modes with closed-form
// rates; its 50 % delay lies below its Elmore delay RC·n(n+1)/2, between the
// one-section ratio ln 2 and the distributed line's 0.76. The engines'
// crossings are held to the modal one.
func TestTruthRCLadderElmoreDelay(t *testing.T) {
	const n, r, cap = 20, 100.0, 1e-13
	tau := r * cap
	c := circuit.New("ladder")
	prev := c.Node("in")
	c.Add(device.NewVSource("V1", prev, circuit.Ground, device.DC(1)))
	for k := 1; k <= n; k++ {
		nd := c.Node(fmt.Sprintf("n%d", k))
		c.Add(device.NewResistor(fmt.Sprintf("R%d", k), prev, nd, r))
		c.Add(device.NewCapacitor(fmt.Sprintf("C%d", k), nd, circuit.Ground, cap))
		prev = nd
	}
	// 1 − v_n(t) = Σ_j a_j e^(−μ_j t/RC): the ladder matrix (2 on the
	// diagonal but 1 at the open end, −1 beside it) has eigenvalues
	// μ_j = 4 sin²(θ_j/2), θ_j = (2j−1)π/(2n+1), eigenvectors sin(kθ_j), and
	// the deviation starts at 1 on every node.
	a, mu := make([]float64, n), make([]float64, n)
	elmore := 0.0
	for j := range a {
		th := float64(2*j+1) * math.Pi / float64(2*n+1)
		var dot, norm float64
		for k := 1; k <= n; k++ {
			s := math.Sin(float64(k) * th)
			dot += s
			norm += s * s
		}
		a[j] = dot / norm * math.Sin(float64(n)*th)
		mu[j] = 4 * math.Pow(math.Sin(th/2), 2)
		elmore += a[j] / mu[j] * tau
	}
	if want := tau * n * (n + 1) / 2; math.Abs(elmore-want) > 1e-9*want {
		t.Fatalf("modal Elmore delay %.6g, closed form %.6g", elmore, want)
	}
	far := func(tm float64) float64 {
		v := 1.0
		for j := range a {
			v -= a[j] * math.Exp(-mu[j]*tm/tau)
		}
		return v
	}
	lo, hi := 0.0, elmore
	for i := 0; i < 100; i++ {
		if mid := (lo + hi) / 2; far(mid) < 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	t50 := (lo + hi) / 2
	if ratio := t50 / elmore; ratio < math.Ln2 || ratio > 0.76 {
		t.Fatalf("modal 50%% delay is %.4f of the Elmore delay, outside [ln 2, 0.76]", ratio)
	}
	for _, run := range []struct {
		name string
		n    int
		bar  float64
	}{{"fixed", 4000, truthConvergence}, {"serial", 0, truthBar}} {
		w := closedFormRun(t, c, 4*elmore, run.n, map[string]float64{"in": 1}, fmt.Sprintf("n%d", n))
		cross, err := w.CrossingTimes(fmt.Sprintf("n%d", n), 0.5, 1)
		if err != nil || len(cross) != 1 {
			t.Fatalf("%s: crossings %v, %v", run.name, cross, err)
		}
		d := math.Abs(cross[0]-t50) / t50
		t.Logf("%s: 50%% delay %.5g s, modal %.5g s (%.3f of Elmore), off by %.3g%%", run.name, cross[0], t50, t50/elmore, 100*d)
		if d > run.bar {
			t.Errorf("%s: 50%% delay off the modal one by %.3g%%, over %.3g%%", run.name, 100*d, 100*run.bar)
		}
	}
}
