package wavepipe

import (
	"fmt"
	"strings"

	"wavepipe/internal/ac"
	"wavepipe/internal/dcop"
	"wavepipe/internal/device"
)

// Additional device model cards and types re-exported from internal/device.
type (
	// BJTModel is a bipolar transistor model card (Ebers–Moll transport
	// formulation with Early effect and charge storage).
	BJTModel = device.BJTModel
	// EKVModel is the smooth subthreshold-to-strong-inversion MOSFET card.
	EKVModel = device.EKVModel
	// SwitchModel parameterizes the voltage-controlled smooth switch.
	SwitchModel = device.SwitchModel
	// VSourceDevice exposes the voltage-source instance type (needed to
	// reference controlling sources of F/H elements and for DC sweeps).
	VSourceDevice = device.VSource
	// InductorDevice exposes the inductor instance type (mutual coupling).
	InductorDevice = device.Inductor
)

// BJT polarities.
const (
	NPN = device.NPN
	PNP = device.PNP
)

// DefaultBJTModel returns SPICE default BJT parameters for the polarity.
func DefaultBJTModel(t device.BJTType) BJTModel { return device.DefaultBJTModel(t) }

// DefaultEKVModel returns a generic EKV card for the polarity.
func DefaultEKVModel(t device.MOSType) EKVModel { return device.DefaultEKVModel(t) }

// DefaultSwitchModel returns SPICE-like switch defaults.
func DefaultSwitchModel() SwitchModel { return device.DefaultSwitchModel() }

// AddBJT adds a bipolar transistor (collector, base, emitter).
func AddBJT(c *Circuit, name string, col, base, em int, m BJTModel, area float64) {
	c.Add(device.NewBJT(name, col, base, em, m, area))
}

// AddMOSFETEKV adds an EKV-model MOSFET with geometry in meters.
func AddMOSFETEKV(c *Circuit, name string, d, g, s, b int, m EKVModel, w, l float64) {
	c.Add(device.NewMOSFETEKV(name, d, g, s, b, m, w, l))
}

// AddSwitch adds a voltage-controlled smooth switch.
func AddSwitch(c *Circuit, name string, p, n, cp, cn int, m SwitchModel) {
	c.Add(device.NewSwitch(name, p, n, cp, cn, m))
}

// AddVSourceAC adds a voltage source carrying both a transient waveform and
// an AC stimulus, returning the instance for later reference (DC sweeps,
// F/H control).
func AddVSourceAC(c *Circuit, name string, p, n int, w Waveform, acMag, acPhaseDeg float64) *VSourceDevice {
	src := device.NewVSource(name, p, n, w)
	src.ACMag, src.ACPhase = acMag, acPhaseDeg
	c.Add(src)
	return src
}

// AddCCCS adds a current-controlled current source (F element).
func AddCCCS(c *Circuit, name string, p, n int, ctrl *VSourceDevice, gain float64) {
	c.Add(device.NewCCCS(name, p, n, ctrl, gain))
}

// AddCCVS adds a current-controlled voltage source (H element).
func AddCCVS(c *Circuit, name string, p, n int, ctrl *VSourceDevice, gain float64) {
	c.Add(device.NewCCVS(name, p, n, ctrl, gain))
}

// AddInductorK adds an inductor and returns the instance so it can be
// mutually coupled with AddMutual.
func AddInductorK(c *Circuit, name string, p, n int, henries float64) *InductorDevice {
	l := device.NewInductor(name, p, n, henries)
	c.Add(l)
	return l
}

// AddMutual couples two inductors with coefficient k (K element).
func AddMutual(c *Circuit, name string, l1, l2 *InductorDevice, k float64) {
	c.Add(device.NewMutual(name, l1, l2, k))
}

// ACResult is the frequency-domain response of an AC analysis.
type ACResult = ac.Result

// ACOptions configures RunAC.
type ACOptions struct {
	// Sweep is "dec", "oct" or "lin" (default "dec").
	Sweep string
	// Points per decade/octave, or total for "lin" (default 10).
	Points int
	// FStart and FStop bound the sweep in Hz.
	FStart, FStop float64
	// Record lists node names to record (nil = all node voltages).
	Record []string
}

// RunAC computes the small-signal frequency response of sys, linearized at
// its DC operating point. Sources with a nonzero ACMag provide the stimulus.
func RunAC(sys *System, opts ACOptions) (*ACResult, error) { return runAC(sys, opts, nil) }

// runAC is RunAC with the operating point seeded by a deck's .NODESET.
func runAC(sys *System, opts ACOptions, nodeSet map[string]float64) (*ACResult, error) {
	inner := ac.Options{FStart: opts.FStart, FStop: opts.FStop, Points: opts.Points}
	if inner.Points <= 0 {
		inner.Points = 10
	}
	switch strings.ToLower(opts.Sweep) {
	case "", "dec":
		inner.Sweep = ac.Dec
	case "oct":
		inner.Sweep = ac.Oct
	case "lin":
		inner.Sweep = ac.Lin
	default:
		return nil, fmt.Errorf("wavepipe: unknown AC sweep %q", opts.Sweep)
	}
	if opts.Record != nil {
		inner.Record = make([]int, len(opts.Record))
		for i, name := range opts.Record {
			idx, ok := sys.Circuit.FindNode(name)
			if !ok || idx == Ground {
				return nil, fmt.Errorf("wavepipe: cannot record unknown node %q", name)
			}
			inner.Record[i] = idx
		}
	}
	var err error
	if inner.DCOp.NodeSet, err = nodeValues(sys, nodeSet, "NODESET"); err != nil {
		return nil, err
	}
	return ac.Run(sys, inner)
}

// RunDCSweep sweeps the given source from start to stop by step, solving
// the operating point at every value. The result's time axis carries the
// sweep values. Record lists node names (nil = all node voltages).
func RunDCSweep(sys *System, src *VSourceDevice, start, stop, step float64, record []string) (*Set, error) {
	ws := sys.NewWorkspace()
	var names []string
	var idx []int
	if record == nil {
		for i := 0; i < sys.NumNodes; i++ {
			names = append(names, sys.Circuit.NodeName(i))
			idx = append(idx, i)
		}
	} else {
		for _, name := range record {
			i, ok := sys.Circuit.FindNode(name)
			if !ok || i == Ground {
				return nil, fmt.Errorf("wavepipe: cannot record unknown node %q", name)
			}
			names = append(names, name)
			idx = append(idx, i)
		}
	}
	return dcop.Sweep(ws, src.SetDC, start, stop, step, names, idx, dcop.DefaultOptions())
}

// RunDeckAC builds a deck and runs its .AC card (or the explicit options
// when the deck has none), from the operating point its .NODESET steers.
func RunDeckAC(d *Deck, opts ACOptions) (*ACResult, error) {
	sys, err := d.Circuit.Build()
	if err != nil {
		return nil, err
	}
	if opts.FStart == 0 && d.AC != nil {
		opts.Sweep = d.AC.Sweep
		opts.Points = d.AC.Points
		opts.FStart = d.AC.FStart
		opts.FStop = d.AC.FStop
	}
	if opts.FStart == 0 {
		return nil, fmt.Errorf("wavepipe: deck has no .AC card and no explicit sweep")
	}
	return runAC(sys, opts, d.NodeSets)
}

// RunDeckDC builds a deck and runs its .DC sweep card.
func RunDeckDC(d *Deck, record []string) (*Set, error) {
	if d.DC == nil {
		return nil, fmt.Errorf("wavepipe: deck has no .DC card")
	}
	src, ok := d.FindSource(d.DC.Source)
	if !ok {
		return nil, fmt.Errorf("wavepipe: .DC references unknown source %q", d.DC.Source)
	}
	sys, err := d.Circuit.Build()
	if err != nil {
		return nil, err
	}
	return RunDCSweep(sys, src, d.DC.Start, d.DC.Stop, d.DC.Step, record)
}

// RunOP computes the DC operating point and returns the node voltages by
// name (branch currents are omitted; use RunTransientCtx with Record for
// those).
func RunOP(sys *System) (map[string]float64, error) {
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	if _, err := dcop.Solve(ws, x, dcop.DefaultOptions()); err != nil {
		return nil, err
	}
	out := make(map[string]float64, sys.NumNodes)
	for i := 0; i < sys.NumNodes; i++ {
		out[sys.Circuit.NodeName(i)] = x[i]
	}
	return out, nil
}

// DCSensitivity is one entry of a DC sensitivity analysis (.SENS).
type DCSensitivity = dcop.Sensitivity

// RunSens computes the DC small-signal sensitivities of the named node's
// voltage with respect to every parameter the circuit's devices expose
// (resistances and DC source values), via the adjoint method: one extra
// transpose solve prices all parameters.
func RunSens(sys *System, outNode string) ([]DCSensitivity, error) {
	idx, ok := sys.Circuit.FindNode(outNode)
	if !ok || idx == Ground {
		return nil, fmt.Errorf("wavepipe: unknown output node %q", outNode)
	}
	ws := sys.NewWorkspace()
	x := make([]float64, sys.N)
	return dcop.Sens(ws, x, idx, dcop.DefaultOptions())
}
