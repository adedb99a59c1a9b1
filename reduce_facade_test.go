package wavepipe

// Facade-level contracts of the parasitic-reduction pass (-reduce):
// suite-wide waveform equivalence against unreduced runs, exact-mode
// bit-identity, probe protection through deck .PRINT cards, and clean
// composition with the ensemble and time-parallel window layers.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"wavepipe/internal/circuits"
)

// reduceLadderDeck renders a parameterised RC ladder netlist. The .PARAM
// card lets ensemble lanes perturb every segment resistor at once while
// keeping the lanes structurally identical.
func reduceLadderDeck(segments int) string {
	var b strings.Builder
	b.WriteString("* param rc ladder\n.param rval=10\n")
	b.WriteString("V1 in 0 PULSE(0 1 0.5n 0.5n 0.5n 4n 10n)\n")
	prev := "in"
	for i := 1; i <= segments; i++ {
		nd := fmt.Sprintf("n%d", i)
		fmt.Fprintf(&b, "R%d %s %s {rval}\nC%d %s 0 20f\n", i, prev, nd, i, nd)
		prev = nd
	}
	fmt.Fprintf(&b, "Rout %s out 10\nCout out 0 50f\n", prev)
	b.WriteString(".tran 0.05n 20n\n.end\n")
	return b.String()
}

// TestReduceSuiteWaveformEquivalence runs every evaluation circuit with the
// reduction pass off and on at the default tolerance. The probed node must
// agree within the documented external-node budget, and the Stats counters
// must reconcile 1:1 with the size of the system actually simulated.
func TestReduceSuiteWaveformEquivalence(t *testing.T) {
	for _, b := range circuits.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			opts := TranOptions{TStop: b.TStop / 5, Record: []string{b.Probe}}
			ref, err := RunTransientCtx(context.Background(), sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			ron := opts
			ron.Reduce = true
			ron.ReduceTol = DefaultReduceTol
			res, err := RunTransientCtx(context.Background(), sys, ron)
			if err != nil {
				t.Fatal(err)
			}
			dev, err := Compare(res.W, ref.W, b.Probe)
			if err != nil {
				t.Fatal(err)
			}
			if m := dev.RelMax(); m >= 0.05 {
				t.Fatalf("probe %s deviates by %g with reduction on, budget 0.05", b.Probe, m)
			}
			if res.Stats.ReducedNodes < 0 || res.Stats.ReducedNodes >= int64(sys.NumNodes) {
				t.Fatalf("ReducedNodes = %d out of range for a %d-node system",
					res.Stats.ReducedNodes, sys.NumNodes)
			}
			if (res.Stats.ReducedNodes == 0) != (res.Stats.ReducedDevices == 0) {
				t.Fatalf("counter mismatch: nodes %d, devices %d",
					res.Stats.ReducedNodes, res.Stats.ReducedDevices)
			}
		})
	}
}

// TestReduceSuiteExactModeBitIdentity: in exact mode (ReduceTol = 0) the
// pass performs only provably exact rewrites, and on circuits where nothing
// is eligible it must hand the engine the very same system — the waveforms
// are bit-identical, not merely close. Every stock circuit either probes or
// capacitively loads its chain interiors, so the whole suite lands in the
// no-op regime; the test asserts that, making any future regression in the
// eligibility rules loud.
func TestReduceSuiteExactModeBitIdentity(t *testing.T) {
	for _, b := range circuits.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			sys, err := b.Make().Build()
			if err != nil {
				t.Fatal(err)
			}
			opts := TranOptions{TStop: b.TStop / 5, Record: []string{b.Probe}}
			ref, err := RunTransientCtx(context.Background(), sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			exact := opts
			exact.Reduce = true
			exact.ReduceTol = 0
			res, err := RunTransientCtx(context.Background(), sys, exact)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.ReducedNodes != 0 || res.Stats.ReducedDevices != 0 {
				t.Fatalf("exact mode reduced a stock circuit: nodes %d, devices %d",
					res.Stats.ReducedNodes, res.Stats.ReducedDevices)
			}
			sameWaveform(t, "exact-mode vs off", res, ref)
		})
	}
}

// TestReduceLadder400KeepsAQuarter: at the default tolerance the ladder's
// 402 nodes collapse to a handful (9 today), the probe stays within the 5%
// suite bar at the full horizon, and the counters reconcile with the size
// of the system the engine actually solved.
func TestReduceLadder400KeepsAQuarter(t *testing.T) {
	b, ok := findSuite("ladder400")
	if !ok {
		t.Fatal("no ladder400 benchmark")
	}
	sys, err := b.Make().Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := TranOptions{TStop: b.TStop, Record: []string{b.Probe}}
	ref, err := RunTransientCtx(context.Background(), sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Reduce = true
	opts.ReduceTol = DefaultReduceTol
	res, err := RunTransientCtx(context.Background(), sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	rsys, err := reduceSystem(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(sys.NumNodes - rsys.NumNodes); got != res.Stats.ReducedNodes {
		t.Fatalf("%d nodes reduced to %d, Stats.ReducedNodes = %d", sys.NumNodes, rsys.NumNodes, res.Stats.ReducedNodes)
	}
	if 4*rsys.NumNodes > sys.NumNodes {
		t.Fatalf("%d nodes reduced to %d, want at most a quarter", sys.NumNodes, rsys.NumNodes)
	}
	dev, err := Compare(res.W, ref.W, b.Probe)
	if err != nil {
		t.Fatal(err)
	}
	if m := dev.RelMax(); m >= 0.05 {
		t.Fatalf("reduced ladder400 deviates by %g, budget 0.05", m)
	}
	if res.Stats.CriticalNanos <= 0 {
		t.Fatalf("CriticalNanos = %d", res.Stats.CriticalNanos)
	}
}

// TestReduceGrid16IsANoOp: every mesh node carries four devices, so the pass
// at the default tolerance finds nothing to reduce and the engine solves the
// very same system, bit for bit.
func TestReduceGrid16IsANoOp(t *testing.T) {
	b, ok := findSuite("grid16")
	if !ok {
		t.Fatal("no grid16 benchmark")
	}
	sys, err := b.Make().Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := TranOptions{TStop: b.TStop, Record: []string{b.Probe}}
	ref, err := RunTransientCtx(context.Background(), sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Reduce = true
	opts.ReduceTol = DefaultReduceTol
	res, err := RunTransientCtx(context.Background(), sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReducedNodes != 0 || res.Stats.ReducedDevices != 0 {
		t.Fatalf("grid16 reduced: nodes %d, devices %d", res.Stats.ReducedNodes, res.Stats.ReducedDevices)
	}
	sameWaveform(t, "reduced vs off", res, ref)
}

// TestReduceLadder400IsFaster times whole runs, planning and rebuilding the
// smaller system included: the reduced ladder400 must beat the full one by
// at least 1.5x, best of three each at the full horizon (about 12x on a
// 2.1 GHz Xeon).
func TestReduceLadder400IsFaster(t *testing.T) {
	b, ok := findSuite("ladder400")
	if !ok {
		t.Fatal("no ladder400 benchmark")
	}
	sys, err := b.Make().Build()
	if err != nil {
		t.Fatal(err)
	}
	best := func(reduce bool) time.Duration {
		opts := TranOptions{TStop: b.TStop, Record: []string{b.Probe}, Reduce: reduce, ReduceTol: DefaultReduceTol}
		var fastest time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := RunTransientCtx(context.Background(), sys, opts); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); i == 0 || d < fastest {
				fastest = d
			}
		}
		return fastest
	}
	full, reduced := best(false), best(true)
	ratio := float64(full) / float64(reduced)
	t.Logf("full %v, reduced %v: %.1fx", full, reduced, ratio)
	if ratio < 1.5 {
		t.Fatalf("reduced run %v against full %v: %.2fx, want >= 1.5x", reduced, full, ratio)
	}
}

// TestReducePrintNodesProtected: a deck's .PRINT/.PLOT/.PROBE cards name
// nodes the user wants to see; ApplyTo hands them to the pass so it can
// never collapse them, and the full-record waveform still carries every
// original node by way of the expansion map.
func TestReducePrintNodesProtected(t *testing.T) {
	reducedHas := func(src, node string) bool {
		t.Helper()
		d, err := ParseDeck(src)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := d.Build()
		if err != nil {
			t.Fatal(err)
		}
		rsys, err := reduceSystem(sys, d.ApplyTo(TranOptions{Reduce: true, ReduceTol: DefaultReduceTol}))
		if err != nil {
			t.Fatal(err)
		}
		if rsys.Reduction() == nil {
			t.Fatal("ladder deck was not reduced at all")
		}
		_, ok := rsys.Circuit.FindNode(node)
		return ok
	}
	if reducedHas(reduceLadderDeck(30), "n15") {
		t.Fatal("n15 survives reduction unprinted: the deck does not test the keep list")
	}
	src := strings.Replace(reduceLadderDeck(30), ".end", ".print tran v(n15)\n.end", 1)
	if !reducedHas(src, "n15") {
		t.Fatal("the .print node n15 was collapsed by reduction")
	}
	d, err := ParseDeck(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDeckCtx(context.Background(), d, TranOptions{Reduce: true, ReduceTol: DefaultReduceTol})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReducedNodes == 0 {
		t.Fatal("ladder deck was not reduced at all")
	}
	// Default record + expansion: every original node is reported, the
	// printed one included.
	for _, name := range []string{"n15", "n7", "out"} {
		if _, err := res.W.Signal(name); err != nil {
			t.Fatalf("node %s missing from the expanded waveform: %v", name, err)
		}
	}
}

// TestReduceUnknownKeepNodeFacade: asking to keep a node the circuit does
// not have is a user error and must fail the run with the typed error, not
// silently reduce around the typo.
func TestReduceUnknownKeepNodeFacade(t *testing.T) {
	d, err := ParseDeck(reduceLadderDeck(10))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunTransientCtx(context.Background(), sys, TranOptions{TStop: 1e-9, Reduce: true, Record: []string{"ghost"}})
	var une *ReduceUnknownNodeError
	if !errors.As(err, &une) {
		t.Fatalf("err = %v, want *ReduceUnknownNodeError", err)
	}
	if une.Node != "ghost" {
		t.Fatalf("error names node %q, want ghost", une.Node)
	}
}

// TestReduceUnderEnsemble: the ensemble layer plans the reduction once on
// the reference lane and applies it to every variant, so lanes stay
// structurally identical. Each lane must match its own serial unreduced
// run within the error budget, carry the reduction counters, and leave no
// goroutines behind.
func TestReduceUnderEnsemble(t *testing.T) {
	before := runtime.NumGoroutine()
	src := reduceLadderDeck(30)
	d, err := ParseDeck(src)
	if err != nil {
		t.Fatal(err)
	}
	variants := []LaneSpec{
		{Name: "nominal"},
		{Name: "slow", Params: map[string]float64{"rval": 25}},
	}
	res, err := RunEnsembleCtx(context.Background(), d, variants, TranOptions{Reduce: true, ReduceTol: DefaultReduceTol})
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range variants {
		lr := res.Lanes[i]
		if lr.Err != nil {
			t.Fatalf("lane %q failed: %v", lr.Name, lr.Err)
		}
		if lr.Res.Stats.ReducedNodes == 0 {
			t.Fatalf("lane %q carries no reduction counters", lr.Name)
		}
		// Serial unreduced reference for this variant.
		ssrc := src
		if v, ok := spec.Params["rval"]; ok {
			ssrc = strings.Replace(ssrc, "rval=10", fmt.Sprintf("rval=%g", v), 1)
		}
		sd, err := ParseDeck(ssrc)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RunDeckCtx(context.Background(), sd, TranOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dev, err := Compare(lr.Res.W, ref.W, "out")
		if err != nil {
			t.Fatal(err)
		}
		if m := dev.RelMax(); m >= 0.05 {
			t.Fatalf("lane %q deviates by %g from its serial reference", lr.Name, m)
		}
		// Expansion restored the suppressed interiors on the default record.
		if _, err := lr.Res.W.Signal("n15"); err != nil {
			t.Fatalf("lane %q lost interior node n15: %v", lr.Name, err)
		}
	}
	waitForGoroutines(t, before, "ensemble reduction")
}

// TestReduceUnderWindows: time-parallel windows run on the reduced system —
// the reduction happens once up front, every window solves the small MNA
// system, and the final waveform is expanded and stays within budget.
func TestReduceUnderWindows(t *testing.T) {
	before := runtime.NumGoroutine()
	d, err := ParseDeck(reduceLadderDeck(30))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	base := TranOptions{TStop: 20e-9, Record: []string{"out"}}
	ref, err := RunTransientCtx(context.Background(), sys, base)
	if err != nil {
		t.Fatal(err)
	}
	won := base
	won.Windows = 4
	won.Reduce = true
	won.ReduceTol = DefaultReduceTol
	res, err := RunTransientCtx(context.Background(), sys, won)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReducedNodes == 0 {
		t.Fatal("windowed run carries no reduction counters")
	}
	if res.Stats.WindowsLaunched == 0 {
		t.Fatal("windowed run launched no windows")
	}
	dev, err := Compare(res.W, ref.W, "out")
	if err != nil {
		t.Fatal(err)
	}
	if m := dev.RelMax(); m >= 0.05 {
		t.Fatalf("windowed reduced run deviates by %g, budget 0.05", m)
	}
	waitForGoroutines(t, before, "windowed reduction")
}

// waitForGoroutines gives background machinery a grace period to wind down
// and then fails if the run leaked goroutines.
func waitForGoroutines(t *testing.T, before int, tag string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("%s: goroutine leak: %d before, %d after", tag, before, now)
	}
}
