package wavepipe

import (
	"context"
	"fmt"
	"strings"

	"wavepipe/internal/device"
	"wavepipe/internal/ensemble"
	"wavepipe/internal/netlist"
	"wavepipe/internal/trace"
)

// LaneSpec describes one member of a batched ensemble run: a named
// parameter-variant of the base deck. The variant circuit is produced by
// re-elaborating the deck source with Params overriding .PARAM values, then
// applying Devices overrides to individual instances.
type LaneSpec struct {
	// Name labels the lane in results (default "laneN").
	Name string
	// Params overrides netlist .PARAM values (case-insensitive names) for
	// this lane before re-elaboration. Unknown names are an error.
	Params map[string]float64
	// Devices overrides the principal value of individual instances by
	// case-insensitive instance name: resistance, capacitance, inductance,
	// or a DC source level. The named device must support single-value
	// perturbation (R, C, L, V, I).
	Devices map[string]float64
}

// EnsembleLane is one lane's outcome: the lane name, its (possibly
// partial) transient result, and the error that retired it, nil when the
// lane reached TStop.
type EnsembleLane = ensemble.LaneResult

// EnsembleResult is the outcome of a batched ensemble run: per-lane
// results plus aggregate statistics. The per-lane Stats are those of the
// lanes' own serial runs and the aggregate sums their work counters, except
// that Stats.CriticalNanos is the solve time of the busiest gang member — the
// largest per-member sum of its lanes' CriticalNanos.
type EnsembleResult = ensemble.Result

// RunEnsembleCtx runs K parameter-variants of one deck as K serial runs
// dealt to one gang: the Jacobian pattern and the fill-reducing ordering are
// computed once and shared by every lane, and each gang member takes the
// next lane as soon as it has finished one.
//
// A lane is its own serial run, so its waveform and counters are
// bit-identical to RunTransientCtx on the same variant. Lanes that finish,
// fault or exhaust the recovery ladder retire without holding the rest.
// Cancellation stops every lane at its next time-point boundary with a
// partial result and a typed ErrCanceled, or ErrDeadlineExceeded when the
// context passed its deadline (lanes not yet started get an empty one), and
// the run returns the same error.
//
// Options follow RunTransientCtx semantics with Threads as the gang width,
// capped by CoreBudget when that is set; Scheme must be Serial (lanes are
// whole-waveform units — the WavePipe schemes parallelize inside one waveform
// and do not compose with lane batching), and the durability options are
// not supported.
func RunEnsembleCtx(ctx context.Context, d *Deck, variants []LaneSpec, opts TranOptions) (*EnsembleResult, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("wavepipe: ensemble needs at least one lane")
	}
	if d.nl().Src == "" {
		return nil, fmt.Errorf("wavepipe: ensemble requires a deck parsed from source (ParseDeck); use RunEnsembleCircuitsCtx for programmatic circuits")
	}
	if k := d.MaxLanes(); len(variants) > k {
		return nil, fmt.Errorf("wavepipe: %d lanes: a deck of %d devices runs at most %d", len(variants), len(d.Circuit.Devices()), k)
	}
	opts = d.ApplyTo(opts)
	lanes := make([]ensemble.Lane, len(variants))
	for i, spec := range variants {
		if err := checkParams(d.nl(), spec.Params); err != nil {
			return nil, fmt.Errorf("wavepipe: lane %q: %w", laneName(spec.Name, i), err)
		}
		ld, err := netlist.ParseParams(d.nl().Src, spec.Params)
		if err != nil {
			return nil, fmt.Errorf("wavepipe: lane %q: %w", laneName(spec.Name, i), err)
		}
		if err := applyDeviceOverrides(ld.Circuit, spec.Devices); err != nil {
			return nil, fmt.Errorf("wavepipe: lane %q: %w", laneName(spec.Name, i), err)
		}
		lanes[i] = ensemble.Lane{Name: laneName(spec.Name, i), Circ: ld.Circuit}
	}
	// Per-lane device overrides must survive reduction untouched: merging
	// an overridden instance into a lumped equivalent would silently drop
	// the perturbation, so its terminals are pinned for every lane.
	var keepDevices []string
	for _, spec := range variants {
		for name := range spec.Devices {
			keepDevices = append(keepDevices, name)
		}
	}
	// The host system supplies the shared symbolic analysis; build it from
	// lane 0 so its pattern reflects the elaborated variant devices.
	sys, err := lanes[0].Circ.Build()
	if err != nil {
		return nil, err
	}
	return runEnsemble(ctx, sys, lanes, opts, keepDevices)
}

// RunEnsembleCircuitsCtx is RunEnsembleCtx over programmatically built
// variant circuits. All circuits must be structurally identical — same node
// names in order, same device sequence and arity — differing only in
// parameter values. Lane names come from the circuit titles.
func RunEnsembleCircuitsCtx(ctx context.Context, circs []*Circuit, opts TranOptions) (*EnsembleResult, error) {
	if len(circs) == 0 {
		return nil, fmt.Errorf("wavepipe: ensemble needs at least one lane")
	}
	lanes := make([]ensemble.Lane, len(circs))
	for i, c := range circs {
		if c == nil {
			return nil, fmt.Errorf("wavepipe: ensemble lane %d is nil", i)
		}
		lanes[i] = ensemble.Lane{Name: laneName(c.Title, i), Circ: c}
	}
	sys, err := circs[0].Build()
	if err != nil {
		return nil, err
	}
	return runEnsemble(ctx, sys, lanes, opts, nil)
}

// runEnsemble translates facade options and dispatches the batch engine.
func runEnsemble(ctx context.Context, sys *System, lanes []ensemble.Lane, opts TranOptions, keepDevices []string) (*EnsembleResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	switch {
	case opts.Scheme != Serial:
		return nil, fmt.Errorf("wavepipe: ensemble lanes are whole-waveform units; Scheme must be Serial (got %v)", opts.Scheme)
	case opts.CheckpointPath != "" || opts.ResumeFrom != "":
		return nil, fmt.Errorf("wavepipe: checkpoint/resume is not supported for ensemble runs")
	case opts.StallFactor > 0:
		return nil, fmt.Errorf("wavepipe: the stall watchdog is not supported for ensemble runs")
	case opts.Windows > 1:
		return nil, fmt.Errorf("wavepipe: time-parallel windows are not supported inside ensemble lanes (run lanes or windows, not both)")
	case opts.OnAccept != nil:
		return nil, fmt.Errorf("wavepipe: OnAccept is not supported for ensemble runs (the callback has no lane argument)")
	}
	sys, infos, err := reduceSystem(sys, lanes, opts, keepDevices)
	if err != nil {
		return nil, err
	}
	base, err := baseOptions(sys, opts)
	if err != nil {
		return nil, err
	}
	base.Ctx = ctx
	base.Trace = trace.New(opts.Observer, trace.DefaultSnapshotEvery)
	res, err := ensemble.Run(sys, lanes, ensemble.Options{Base: base, Workers: opts.Threads})
	if res != nil && infos != nil {
		for i := range res.Lanes {
			finishReduced(infos[i], opts, res.Lanes[i].Res)
		}
		res.Stats.ReducedNodes = int64(infos[0].RemovedNodes)
		res.Stats.ReducedDevices = int64(infos[0].RemovedDevices)
	}
	return res, err
}

// laneName applies the "laneN" default.
func laneName(name string, i int) string {
	if name != "" {
		return name
	}
	return fmt.Sprintf("lane%d", i)
}

// checkParams rejects overrides naming parameters the deck never defines —
// a silently ignored misspelling would run the nominal circuit K times.
func checkParams(d *netlist.Deck, over map[string]float64) error {
	for name := range over {
		if _, ok := d.Params[strings.ToLower(name)]; !ok {
			return fmt.Errorf("parameter %q is not defined by the deck", name)
		}
	}
	return nil
}

// applyDeviceOverrides perturbs named instances in the variant circuit.
func applyDeviceOverrides(c *Circuit, over map[string]float64) error {
	if len(over) == 0 {
		return nil
	}
	for name, v := range over {
		found := false
		for _, dev := range c.Devices() {
			if !strings.EqualFold(dev.Name(), name) {
				continue
			}
			sv, ok := dev.(device.SingleValued)
			if !ok {
				return fmt.Errorf("device %q (%T) does not support single-value overrides", name, dev)
			}
			sv.SetValue(v)
			found = true
			break
		}
		if !found {
			return fmt.Errorf("device %q not found in circuit", name)
		}
	}
	return nil
}
