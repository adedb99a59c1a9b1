// Package wavepipe is a parallel SPICE-class transient circuit simulator
// for multi-core shared-memory machines. It reproduces the WavePipe
// methodology (Dong, Li, Ye — DAC 2008): coarse-grained parallelism across
// adjacent time points via backward and forward waveform pipelining, on top
// of a complete MNA engine (sparse LU, Newton–Raphson, variable-step
// Gear-2/trapezoidal integration with LTE control).
//
// # Quick start
//
//	deck, _ := wavepipe.ParseDeck(netlistText)
//	sys, _ := deck.Build()
//	res, _ := wavepipe.RunTransient(sys, wavepipe.TranOptions{
//		TStop:  deck.Tran.TStop,
//		Scheme: wavepipe.Combined,
//	})
//	v, _ := res.W.At("out", 1e-6)
//
// Circuits can also be built programmatically with NewCircuit and the
// device constructors (AddResistor, AddMOSFET, ...); see examples/.
package wavepipe

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"wavepipe/internal/checkpoint"
	"wavepipe/internal/circuit"
	"wavepipe/internal/device"
	"wavepipe/internal/faults"
	"wavepipe/internal/integrate"
	"wavepipe/internal/netlist"
	"wavepipe/internal/reduce"
	"wavepipe/internal/trace"
	"wavepipe/internal/transient"
	"wavepipe/internal/waveform"
	wpcore "wavepipe/internal/wavepipe"
	"wavepipe/internal/windows"
)

// Ground is the reference-node index accepted by all device constructors.
const Ground = circuit.Ground

// Re-exported core types. The aliases keep one canonical implementation in
// internal/ while giving downstream users a stable import path.
type (
	// Circuit is a netlist under construction.
	Circuit = circuit.Circuit
	// System is a compiled circuit ready to simulate.
	System = circuit.System
	// Device is the element interface (satisfied by all built-in models).
	Device = circuit.Device
	// Waveform describes a source's time dependence.
	Waveform = device.Waveform
	// DC, Pulse, Sin, PWL and Exp are the independent-source waveforms.
	DC    = device.DC
	Pulse = device.Pulse
	Sin   = device.Sin
	PWL   = device.PWL
	Exp   = device.Exp
	// DiodeModel and MOSModel are device model cards.
	DiodeModel = device.DiodeModel
	MOSModel   = device.MOSModel
	// Set is a recorded waveform group.
	Set = waveform.Set
	// Deviation summarizes a waveform comparison.
	Deviation = waveform.Deviation
	// Stats aggregates the work a run performed.
	Stats = transient.Stats
	// TranSpec is a parsed .TRAN directive.
	TranSpec = netlist.TranSpec
	// SimError is the typed simulation error: phase, time point and (when
	// known) the offending unknown, wrapping one of the Err* sentinels.
	SimError = faults.SimError
	// RecoveryLog and RecoveryEvent record the robustness actions (recovery
	// ladder climbs, serial fallbacks) a run took; see Result.Recovery.
	RecoveryLog   = transient.RecoveryLog
	RecoveryEvent = transient.RecoveryEvent
	// FaultInjector is the deterministic fault-injection harness (tests and
	// robustness drills only; see TranOptions.Faults).
	FaultInjector = faults.Injector
	// FaultRule schedules one fault class at an instrumented site.
	FaultRule = faults.Rule
	// FaultClass enumerates the injectable fault classes.
	FaultClass = faults.Class
	// CoarseOptions tunes the time-parallel (Parareal) coarse propagator
	// and per-window convergence gate; see TranOptions.Windows.
	CoarseOptions = windows.CoarseOptions
)

// Injectable fault classes.
const (
	FaultNoConvergence = faults.NoConvergence
	FaultSingular      = faults.Singular
	FaultNonFinite     = faults.NonFinite
	FaultWorkerPanic   = faults.WorkerPanic
)

// Error taxonomy sentinels: every engine failure wraps one of these, so
// callers can branch with errors.Is regardless of which layer failed.
var (
	ErrNoConvergence = faults.ErrNoConvergence
	ErrSingular      = faults.ErrSingular
	ErrNonFinite     = faults.ErrNonFinite
	ErrStepTooSmall  = faults.ErrStepTooSmall
	ErrWorkerPanic   = faults.ErrWorkerPanic
	// ErrCanceled is returned (wrapped in a SimError) by RunTransientCtx
	// when the context is canceled mid-run; the partial Result up to the
	// last completed time point is returned alongside it.
	ErrCanceled = faults.ErrCanceled
	// ErrDeadlineExceeded is returned (wrapped in a SimError) when the run
	// overruns TranOptions.Deadline; like cancellation, the partial Result is
	// returned alongside it and a final checkpoint is flushed first when
	// checkpointing is configured.
	ErrDeadlineExceeded = faults.ErrDeadlineExceeded
	// ErrStalled is returned (wrapped in a SimError) when the watchdog
	// detects that no time point has been accepted for far longer than the
	// run's trailing per-point pace (see TranOptions.StallFactor).
	ErrStalled = faults.ErrStalled
	// ErrBadCheckpoint is returned (wrapped in a SimError) when a checkpoint
	// file is truncated, corrupted, from an incompatible version, or does not
	// match the circuit and options of the resuming run.
	ErrBadCheckpoint = faults.ErrBadCheckpoint
)

// NewFaultInjector builds a fault harness from the given rules.
func NewFaultInjector(rules ...FaultRule) *FaultInjector {
	return faults.NewInjector(rules...)
}

// MOSFET polarities.
const (
	NMOS = device.NMOS
	PMOS = device.PMOS
)

// Method selects the implicit integration formula.
type Method = integrate.Method

// Integration methods.
const (
	BackwardEuler = integrate.BackwardEuler
	Trapezoidal   = integrate.Trapezoidal
	Gear2         = integrate.Gear2
)

// Scheme selects the simulation engine.
type Scheme int

// Simulation engines: the serial baseline and the three WavePipe schemes.
const (
	Serial Scheme = iota
	Backward
	Forward
	Combined
)

// String returns the scheme name.
func (s Scheme) String() string {
	switch s {
	case Serial:
		return "serial"
	case Backward:
		return "backward"
	case Forward:
		return "forward"
	case Combined:
		return "combined"
	default:
		return "unknown"
	}
}

// ParseScheme maps a scheme name (as produced by Scheme.String) back to the
// value. It is the inverse the CLIs and the wire schema share.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "serial", "":
		return Serial, nil
	case "backward":
		return Backward, nil
	case "forward":
		return Forward, nil
	case "combined":
		return Combined, nil
	default:
		return 0, fmt.Errorf("wavepipe: unknown scheme %q (serial, backward, forward, combined)", s)
	}
}

// ParseMethod maps an integration-method name (as produced by Method.String)
// back to the value.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "gear2", "":
		return Gear2, nil
	case "trap":
		return Trapezoidal, nil
	case "be":
		return BackwardEuler, nil
	default:
		return 0, fmt.Errorf("wavepipe: unknown method %q (be, trap, gear2)", s)
	}
}

// NewCircuit returns an empty circuit with the given title.
func NewCircuit(title string) *Circuit { return circuit.New(title) }

// Deck is a parsed SPICE netlist: the circuit plus its analysis cards
// (.TRAN/.AC/.DC), initial conditions and .OPTIONS. It is a facade-defined
// type over the internal parser's deck so deck-level helpers (Build,
// ApplyTo) live on the public API.
type Deck netlist.Deck

// nl views the deck as the internal parser type.
func (d *Deck) nl() *netlist.Deck { return (*netlist.Deck)(d) }

// Build compiles the deck's circuit into a simulatable System.
func (d *Deck) Build() (*System, error) { return d.Circuit.Build() }

// FindSource returns the named independent voltage source (for .DC sweeps);
// names are case-insensitive.
func (d *Deck) FindSource(name string) (*device.VSource, bool) {
	return d.nl().FindSource(name)
}

// ApplyTo merges the deck's analysis cards into opts, following the
// precedence rules documented in DESIGN.md — explicitly set TranOptions
// fields always win over deck cards:
//
//   - TStop: kept if positive, else taken from .TRAN.
//   - UIC: true if set in either place.
//   - MaxStep: kept if positive, else .TRAN's TMax when present.
//   - RelTol/AbsTol: kept if positive, else .OPTIONS reltol/abstol.
//   - IC/NodeSet: kept if non-nil, else the deck's .IC/.NODESET maps.
//
// ApplyTo only merges; it never validates. The merged options flow into the
// single validation path (TranOptions.validate, run by every entry point),
// which rejects a run that ended up without a positive TStop — so a deck
// with no .TRAN and no explicit TStop fails there, not here. The receiver
// is not modified; the merged options are returned. The error result is
// always nil and retained only for call-site compatibility.
func (d *Deck) ApplyTo(opts TranOptions) (TranOptions, error) {
	if opts.TStop <= 0 && d.Tran != nil {
		opts.TStop = d.Tran.TStop
	}
	if d.Tran != nil {
		if opts.UIC || d.Tran.UIC {
			opts.UIC = true
		}
		if opts.MaxStep <= 0 && d.Tran.TMax > 0 {
			opts.MaxStep = d.Tran.TMax
		}
	}
	if opts.RelTol <= 0 {
		if v, ok := d.Options["reltol"]; ok {
			opts.RelTol = v
		}
	}
	if opts.AbsTol <= 0 {
		if v, ok := d.Options["abstol"]; ok {
			opts.AbsTol = v
		}
	}
	if len(d.ICs) > 0 && opts.IC == nil {
		opts.IC = d.ICs
	}
	if len(d.NodeSets) > 0 && opts.NodeSet == nil {
		opts.NodeSet = d.NodeSets
	}
	if len(d.Prints) > 0 {
		// Nodes the deck asks to print must survive the reduction pass;
		// appending is additive, so explicit ReduceKeep entries also stay.
		merged := make([]string, 0, len(opts.ReduceKeep)+len(d.Prints))
		merged = append(merged, opts.ReduceKeep...)
		merged = append(merged, d.Prints...)
		opts.ReduceKeep = merged
	}
	return opts, nil
}

// ParseDeck parses SPICE netlist text.
func ParseDeck(src string) (*Deck, error) {
	d, err := netlist.Parse(src)
	return (*Deck)(d), err
}

// WriteDeck renders a deck back to SPICE text.
func WriteDeck(w io.Writer, d *Deck) error {
	return netlist.Write(w, d.nl())
}

// DefaultDiodeModel returns SPICE default diode parameters.
func DefaultDiodeModel() DiodeModel { return device.DefaultDiodeModel() }

// DefaultMOSModel returns a generic Level-1 model of the given polarity.
func DefaultMOSModel(t device.MOSType) MOSModel { return device.DefaultMOSModel(t) }

// AddResistor adds a resistor and returns the circuit for chaining.
func AddResistor(c *Circuit, name string, p, n int, ohms float64) {
	c.Add(device.NewResistor(name, p, n, ohms))
}

// AddCapacitor adds a linear capacitor.
func AddCapacitor(c *Circuit, name string, p, n int, farads float64) {
	c.Add(device.NewCapacitor(name, p, n, farads))
}

// AddInductor adds a linear inductor.
func AddInductor(c *Circuit, name string, p, n int, henries float64) {
	c.Add(device.NewInductor(name, p, n, henries))
}

// AddVSource adds an independent voltage source.
func AddVSource(c *Circuit, name string, p, n int, w Waveform) {
	c.Add(device.NewVSource(name, p, n, w))
}

// AddISource adds an independent current source (current flows P→N through
// the source).
func AddISource(c *Circuit, name string, p, n int, w Waveform) {
	c.Add(device.NewISource(name, p, n, w))
}

// AddDiode adds a pn-junction diode (anode p, cathode n).
func AddDiode(c *Circuit, name string, p, n int, m DiodeModel, area float64) {
	c.Add(device.NewDiode(name, p, n, m, area))
}

// AddMOSFET adds a Level-1 MOSFET with geometry in meters.
func AddMOSFET(c *Circuit, name string, d, g, s, b int, m MOSModel, w, l float64) {
	c.Add(device.NewMOSFET(name, d, g, s, b, m, w, l))
}

// AddVCVS adds a voltage-controlled voltage source.
func AddVCVS(c *Circuit, name string, p, n, cp, cn int, gain float64) {
	c.Add(device.NewVCVS(name, p, n, cp, cn, gain))
}

// AddVCCS adds a voltage-controlled current source.
func AddVCCS(c *Circuit, name string, p, n, cp, cn int, gm float64) {
	c.Add(device.NewVCCS(name, p, n, cp, cn, gm))
}

// TranOptions configures a transient analysis through the facade.
type TranOptions struct {
	// TStop is the end of the simulation window (required).
	TStop float64
	// Scheme selects the engine (default Serial).
	Scheme Scheme
	// Threads is the pipeline width of the WavePipe schemes — how many
	// points a stage solves at once, and the size of the run's persistent
	// stage gang (default: scheme-specific, 2–3) — and the gang width for
	// ensemble runs. On a host, or under a CoreBudget, with fewer cores than
	// a round has tasks the round runs them one after another (same
	// results; Stats.PipelineSerialized).
	Threads int
	// Method is the integration formula (default Gear2).
	Method Method
	// RelTol and AbsTol override the error tolerances (defaults 1e-3, 1e-6).
	RelTol, AbsTol float64
	// MaxStep and InitStep bound the adaptive step (defaults TStop/20 and
	// TStop·1e-6).
	MaxStep, InitStep float64
	// UIC skips the operating point and starts from IC.
	UIC bool
	// IC maps node names to initial voltages.
	IC map[string]float64
	// NodeSet maps node names to operating-point initial guesses
	// (SPICE .NODESET): Newton seeds, not constraints.
	NodeSet map[string]float64
	// Record lists node names to record (nil = all node voltages).
	Record []string
	// DeltaRatio tunes the backward offset δ/h (default 0.2).
	DeltaRatio float64
	// DeviceBypass enables the incremental assembly engine on serial device
	// loads: exactly linear devices are folded into a cached per-step-size
	// stamp template and two compact matrix-vector products instead of being
	// re-stamped one by one; nonlinear devices are evaluated as always. Every
	// assembly is exact, but the template sums the linear stamps in another
	// order, so waveforms agree with the plain path to rounding, inside the
	// LTE band. false (the default) keeps assembly bit-identical to the
	// always-evaluate engine.
	DeviceBypass bool
	// CoreBudget caps the cores the run may occupy at once: the pipeline
	// workers of a WavePipe scheme, the windows of a windowed run that
	// refine concurrently (each with its own pipeline), the gang an
	// ensemble deals its lanes to, and what a service's arbiter grants a
	// job. A time point is always solved by one goroutine, so a Serial run
	// occupies one core whatever the budget. A round with more tasks than
	// the budget covers runs them one after another with the same results,
	// so no budget changes the waveform of a Serial or pipelined run or of
	// an ensemble lane. 0 (the default) leaves scheduling to the host.
	CoreBudget int
	// Windows > 1 enables time-parallel simulation (pipelined Parareal):
	// a cheap coarse propagator sweeps [0, TStop] once to seed Windows
	// time windows, each refined concurrently by the selected engine and
	// accepted only when it agrees with its exact predecessor within the
	// convergence gate — otherwise the window is redone from the exact
	// state (see CoarseOpts). Final waveforms match the serial answer
	// within the existing accuracy gates; with CoarseOpts.Strict they are
	// bit-identical to the sequential window chain. Windowed runs share
	// CoreBudget across the coarse sweep and all windows, and are
	// incompatible with the durability options (CheckpointPath,
	// ResumeFrom, Deadline, StallFactor). 0/1 disables windowing.
	Windows int
	// CoarseOpts tunes the Parareal coarse propagator and convergence
	// gate when Windows > 1; the zero value selects the defaults.
	CoarseOpts CoarseOptions
	// Faults injects deterministic solver faults for robustness testing
	// (nil in production runs).
	Faults *FaultInjector
	// Observer, when non-nil, receives the run's structured telemetry:
	// per-point events (predict/solve/accept/LTE-reject/discard/recovery/
	// serial-fallback), per-phase solve timings and periodic metrics
	// snapshots. See NewTraceRecorder, NewTraceMetrics and MultiObserver
	// for ready-made observers. Nil (the default) keeps the engines'
	// hot path free of allocations, locks and clock reads.
	Observer Observer
	// SnapshotEvery is the metrics snapshot cadence in accepted points
	// (default 128; only meaningful with an Observer).
	SnapshotEvery int
	// Deadline is a wall-clock budget for the run. When positive, a run
	// exceeding it is aborted at the next solver boundary: the partial
	// Result is returned with an error satisfying
	// errors.Is(err, ErrDeadlineExceeded), and a final checkpoint is
	// flushed first when CheckpointPath is set. 0 (the default) means no
	// deadline.
	Deadline time.Duration
	// CheckpointPath enables durable checkpoints: the complete run state at
	// accepted-step boundaries is atomically written to this file every
	// CheckpointEvery accepted points and once more when the run ends for
	// any reason (success, cancellation, deadline, stall, panic). A serial
	// run resumed from such a checkpoint replays bit-identically to an
	// uninterrupted one. Empty (the default) disables checkpointing.
	CheckpointPath string
	// CheckpointEvery is the periodic snapshot cadence in accepted points
	// (default 256). Requires CheckpointPath.
	CheckpointEvery int
	// ResumeFrom resumes the run from a checkpoint file previously written
	// via CheckpointPath. The checkpoint must match the circuit (unknown
	// count, state count, device count, matrix pattern), TStop and Method of
	// this run; any mismatch or corruption yields ErrBadCheckpoint.
	ResumeFrom string
	// StallFactor arms the stall watchdog: the run is aborted with
	// ErrStalled when no time point has been accepted for longer than
	// StallFactor times the trailing exponentially-weighted per-point time
	// (never sooner than one second). Values below 2 are clamped to 2.
	// 0 (the default) disables the watchdog.
	StallFactor float64
	// OnAccept, when non-nil, observes every accepted time point right after
	// it is committed: t is the point's time and row the recorded values in
	// Result.W column order. The row aliases the result's storage — copy it
	// to retain it past the callback. Called in time order from the engine's
	// commit goroutine; never after the run returns. A resumed run does not
	// re-emit points restored from the checkpoint. This is the hook the
	// service's streaming endpoint is built on.
	OnAccept func(t float64, row []float64)
	// Reduce enables the structure-exploiting parasitic reduction pass
	// (internal/reduce) before the system is simulated: series R/L chains
	// are merged exactly and uniform RC-ladder segments are lumped into
	// low-order sections under the ReduceTol error budget, shrinking the
	// MNA dimension every downstream engine works on. Nodes named by
	// Record, ReduceKeep, IC, NodeSet or deck .PRINT cards are never
	// collapsed; suppressed node waveforms are reconstructed through the
	// expansion map when Record is nil. Circuits containing devices the
	// pass cannot analyze (current-controlled sources, mutual inductors,
	// switches) are left untouched. false (the default) keeps runs
	// bit-identical to earlier releases.
	Reduce bool
	// ReduceTol is the waveform error budget for the lossy ladder-lumping
	// transform when Reduce is set. 0 selects exact mode: only
	// error-free series merges are applied. The CLI default is
	// DefaultReduceTol.
	ReduceTol float64
	// ReduceKeep lists additional node names that must survive reduction
	// (beyond Record/IC/NodeSet and deck .PRINT references). Naming an
	// unknown node fails the run with a typed *ReduceUnknownNodeError.
	ReduceKeep []string
}

// DefaultReduceTol is the ladder-lumping error budget the CLI applies when
// -reduce is given without -reduce-tol: roughly 8 lumped sections, keeping
// waveform deviations comfortably inside the suite's 5% equivalence bar.
const DefaultReduceTol = 0.02

// ReduceUnknownNodeError is the typed error returned when reduction is
// asked to preserve a node the circuit does not define.
type ReduceUnknownNodeError = reduce.UnknownNodeError

// validate rejects option values that would otherwise flow silently into
// the engines and corrupt a run (the engines clamp what they can, but
// nonsense deserves a loud answer at the API boundary). It is the single
// validation path behind every entry point — RunTransientCtx, the ensemble
// runner, and the service — and runs after Deck.ApplyTo's merge, so it sees
// the effective options whichever side supplied them.
func (o TranOptions) validate() error {
	if o.TStop <= 0 || math.IsNaN(o.TStop) {
		return fmt.Errorf("wavepipe: TStop must be positive (set TranOptions.TStop or simulate a deck with a .TRAN card)")
	}
	if math.IsNaN(o.RelTol) || o.RelTol < 0 {
		return fmt.Errorf("wavepipe: RelTol must not be negative or NaN (got %g)", o.RelTol)
	}
	if math.IsNaN(o.AbsTol) || o.AbsTol < 0 {
		return fmt.Errorf("wavepipe: AbsTol must not be negative or NaN (got %g)", o.AbsTol)
	}
	if math.IsNaN(o.MaxStep) || o.MaxStep < 0 {
		return fmt.Errorf("wavepipe: MaxStep must not be negative or NaN (got %g)", o.MaxStep)
	}
	if math.IsNaN(o.InitStep) || o.InitStep < 0 {
		return fmt.Errorf("wavepipe: InitStep must not be negative or NaN (got %g)", o.InitStep)
	}
	if o.Threads < 0 {
		return fmt.Errorf("wavepipe: Threads must not be negative (got %d)", o.Threads)
	}
	if o.Threads > 1024 {
		return fmt.Errorf("wavepipe: Threads %d is not a plausible worker count (max 1024)", o.Threads)
	}
	if math.IsNaN(o.DeltaRatio) {
		return fmt.Errorf("wavepipe: DeltaRatio must not be NaN")
	}
	if o.DeltaRatio < 0 {
		return fmt.Errorf("wavepipe: DeltaRatio must not be negative (got %g): the backward offset δ = DeltaRatio·h must stay inside the step", o.DeltaRatio)
	}
	if o.DeltaRatio >= 1 {
		return fmt.Errorf("wavepipe: DeltaRatio %g must be below 1: a backward point at δ ≥ h would precede the current time", o.DeltaRatio)
	}
	if o.CoreBudget < 0 {
		return fmt.Errorf("wavepipe: CoreBudget must not be negative (got %d)", o.CoreBudget)
	}
	if o.CoreBudget > 1024 {
		return fmt.Errorf("wavepipe: CoreBudget %d is not a plausible core count (max 1024)", o.CoreBudget)
	}
	if o.Deadline < 0 {
		return fmt.Errorf("wavepipe: Deadline must not be negative (got %v)", o.Deadline)
	}
	if o.CheckpointEvery < 0 {
		return fmt.Errorf("wavepipe: CheckpointEvery must not be negative (got %d)", o.CheckpointEvery)
	}
	if o.CheckpointEvery > 0 && o.CheckpointPath == "" {
		return fmt.Errorf("wavepipe: CheckpointEvery requires CheckpointPath")
	}
	if math.IsNaN(o.StallFactor) {
		return fmt.Errorf("wavepipe: StallFactor must not be NaN")
	}
	if o.StallFactor < 0 {
		return fmt.Errorf("wavepipe: StallFactor must not be negative (got %g)", o.StallFactor)
	}
	if o.Windows < 0 {
		return fmt.Errorf("wavepipe: Windows must not be negative (got %d)", o.Windows)
	}
	if o.Windows > 1024 {
		return fmt.Errorf("wavepipe: Windows %d is not a plausible window count (max 1024)", o.Windows)
	}
	if o.CoarseOpts.Steps < 0 {
		return fmt.Errorf("wavepipe: CoarseOpts.Steps must not be negative (got %d)", o.CoarseOpts.Steps)
	}
	if math.IsNaN(o.CoarseOpts.TolScale) || o.CoarseOpts.TolScale < 0 {
		return fmt.Errorf("wavepipe: CoarseOpts.TolScale must not be negative or NaN (got %g)", o.CoarseOpts.TolScale)
	}
	if math.IsNaN(o.CoarseOpts.Gate) || o.CoarseOpts.Gate < 0 {
		return fmt.Errorf("wavepipe: CoarseOpts.Gate must not be negative or NaN (got %g)", o.CoarseOpts.Gate)
	}
	if math.IsNaN(o.ReduceTol) || o.ReduceTol < 0 {
		return fmt.Errorf("wavepipe: ReduceTol must not be negative or NaN (got %g)", o.ReduceTol)
	}
	if o.ReduceTol >= 1 {
		return fmt.Errorf("wavepipe: ReduceTol %g is not a plausible error budget (must be below 1)", o.ReduceTol)
	}
	if o.Windows > 1 &&
		(o.CheckpointPath != "" || o.ResumeFrom != "" || o.Deadline > 0 || o.StallFactor > 0) {
		return fmt.Errorf("wavepipe: Windows is incompatible with the durability options (CheckpointPath, ResumeFrom, Deadline, StallFactor): a time-parallel run has no single linear engine state to checkpoint")
	}
	return nil
}

// Result is the outcome of a transient analysis.
type Result = transient.Result

// Compare computes the deviation of a signal between two result waveforms.
func Compare(a, ref *Set, signal string) (Deviation, error) {
	return waveform.Compare(a, ref, signal)
}

// RunTransient simulates sys with the selected engine. It is shorthand for
// RunTransientCtx with a background context.
//
// Deprecated: new code should call RunTransientCtx (context-first core) or,
// when jobs need queueing, streaming or cancellation by ID, the Client
// interface (NewService in-process, client.New over HTTP). This wrapper is
// kept so existing callers keep compiling.
func RunTransient(sys *System, opts TranOptions) (*Result, error) {
	return RunTransientCtx(context.Background(), sys, opts)
}

// RunTransientCtx simulates sys with the selected engine under a context.
// Cancellation is honoured at every time-point boundary: the partial Result
// computed so far is returned together with a typed error satisfying
// errors.Is(err, ErrCanceled). When opts.Observer is non-nil the run streams
// structured telemetry into it (see TranOptions.Observer).
//
// Durability: TranOptions.CheckpointPath / Deadline / StallFactor arm a run
// guard that snapshots state at accepted-step boundaries and aborts overdue
// or stalled runs with a typed error (ErrDeadlineExceeded, ErrStalled); a
// panic escaping any engine layer is contained here and converted into an
// ErrWorkerPanic-wrapped error with the Result salvaged from the last
// retained snapshot. See TranOptions.ResumeFrom for restarting a run.
func RunTransientCtx(ctx context.Context, sys *System, opts TranOptions) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	rsys, err := reduceSystem(sys, opts)
	if err != nil {
		return nil, err
	}
	sys = rsys
	base, err := baseOptions(sys, opts)
	if err != nil {
		return nil, err
	}
	base.Ctx = ctx
	base.Trace = trace.New(opts.Observer, opts.SnapshotEvery)

	var ctl *checkpoint.Controller
	if opts.CheckpointPath != "" || opts.Deadline > 0 || opts.StallFactor > 0 {
		ctl = checkpoint.NewController(checkpoint.Config{
			Path:        opts.CheckpointPath,
			Every:       opts.CheckpointEvery,
			Deadline:    opts.Deadline,
			StallFactor: opts.StallFactor,
		})
		ctl.SetTracer(base.Trace)
		base.Guard = ctl
	}
	if opts.ResumeFrom != "" {
		st, lerr := checkpoint.Load(opts.ResumeFrom)
		if lerr != nil {
			return nil, lerr
		}
		base.Resume = st
	}
	if ctl != nil {
		ctl.Start()
		defer ctl.Stop()
	}
	res, err := runEngine(sys, opts, base)
	if res == nil && err != nil && ctl != nil {
		// A panic (or any failure that kept the engine from returning its
		// partial result) still salvages the last snapshot the guard kept.
		res = transient.SalvageResult(ctl.Retained())
	}
	finishReduced(sys, opts, res)
	return res, err
}

// reduceSystem runs the parasitic-reduction pass when opts asks for it and
// sys has not been through it already (the artifact cache attaches the
// reduction record to cached systems, including a no-op marker, so cached
// entries are never reduced twice). The keep list protects every node the
// caller can observe or seed: Record, ReduceKeep, IC and NodeSet names.
// When the pass is a no-op the original compiled System is returned
// unchanged, preserving bit-identical results.
func reduceSystem(sys *System, opts TranOptions) (*System, error) {
	if !opts.Reduce || sys.Reduction() != nil {
		return sys, nil
	}
	keep := reduceKeepList(opts)
	rc, ri, err := reduce.Reduce(sys.Circuit, reduce.Options{Tol: opts.ReduceTol, Keep: keep})
	if err != nil {
		return nil, err
	}
	if ri == nil {
		return sys, nil
	}
	rsys, err := rc.Build()
	if err != nil {
		return nil, fmt.Errorf("wavepipe: reduced circuit failed to build: %w", err)
	}
	rsys.SetReduction(ri)
	return rsys, nil
}

// reduceKeepList collects every node name reduction must preserve for the
// run to be observationally equivalent to the unreduced one.
func reduceKeepList(opts TranOptions) []string {
	keep := make([]string, 0, len(opts.Record)+len(opts.ReduceKeep)+len(opts.IC)+len(opts.NodeSet))
	keep = append(keep, opts.Record...)
	keep = append(keep, opts.ReduceKeep...)
	for name := range opts.IC {
		keep = append(keep, name)
	}
	for name := range opts.NodeSet {
		keep = append(keep, name)
	}
	return keep
}

// finishReduced fills the reduction counters on a finished run and, for
// default recording, expands the reduced waveform back onto the full
// original node set so callers see the same signals with and without
// Reduce.
func finishReduced(sys *System, opts TranOptions, res *Result) {
	ri := sys.Reduction()
	if ri == nil || res == nil {
		return
	}
	res.Stats.ReducedNodes = int64(ri.RemovedNodes)
	res.Stats.ReducedDevices = int64(ri.RemovedDevices)
	if ri.RemovedNodes == 0 || opts.Record != nil || res.W == nil {
		return
	}
	res.W = expandSet(ri, res.W)
}

// expandSet reconstructs the suppressed node waveforms of a default-record
// result: the reduced engine recorded every reduced node voltage in node
// order, so column j is reduced node j and each original node is an affine
// combination of columns. Sets with any other shape (partial salvage,
// custom recording) are returned unchanged.
func expandSet(ri *circuit.ReducedInfo, w *waveform.Set) *waveform.Set {
	nRed := len(ri.OrigNodes) - ri.RemovedNodes
	if len(w.Names) != nRed {
		return w
	}
	names := make([]string, len(ri.OrigNodes))
	index := make([]int, len(ri.OrigNodes))
	copy(names, ri.OrigNodes)
	for o := range index {
		index[o] = o
	}
	data := make([][]float64, len(w.Data))
	for k, row := range w.Data {
		out := make([]float64, len(names))
		for o := range names {
			out[o] = ri.ExpandValue(o, row)
		}
		data[k] = out
	}
	ns, err := waveform.Restore(names, index, w.Times, data)
	if err != nil {
		return w
	}
	return ns
}

// containPanic is the engines' panic fence, deferred by every function that
// runs one: a panic escaping any engine layer becomes an ErrWorkerPanic-
// wrapped typed error instead of tearing down the process, so the caller
// still receives the salvaged partial Result and any final checkpoint the
// deferred save flushed during unwinding.
func containPanic(res **Result, err *error) {
	if r := recover(); r != nil {
		*res = nil
		*err = &faults.SimError{
			Phase: "transient", Node: -1,
			Cause: fmt.Errorf("%w: engine panic: %v", faults.ErrWorkerPanic, r),
		}
	}
}

// runEngine dispatches to the selected engine, through the window
// coordinator when Windows asks for it.
func runEngine(sys *System, opts TranOptions, base transient.Options) (res *Result, err error) {
	defer containPanic(&res, &err)
	if opts.Windows > 1 {
		return windows.Run(sys, windows.Options{
			W:                opts.Windows,
			Coarse:           opts.CoarseOpts,
			Base:             base,
			ThreadsPerWindow: engineWidth(opts),
			CoreBudget:       opts.CoreBudget,
			Fine: func(b transient.Options) (*Result, error) {
				return runSchemeEngine(sys, opts, b)
			},
		})
	}
	return runSchemeEngine(sys, opts, base)
}

// engineWidth is the number of cores one engine instance can occupy: one for
// Serial, the pipeline width for a scheme. The window coordinator splits the
// core budget by it and the service sizes a job's core request with it.
func engineWidth(opts TranOptions) int {
	if opts.Scheme == Serial {
		return 1
	}
	return wpcore.Width(coreScheme(opts.Scheme), opts.Threads)
}

// coreScheme maps a pipelined facade scheme to the engine's.
func coreScheme(s Scheme) wpcore.Scheme {
	switch s {
	case Backward:
		return wpcore.SchemeBackward
	case Forward:
		return wpcore.SchemeForward
	default:
		return wpcore.SchemeCombined
	}
}

// runSchemeEngine dispatches one engine run. It carries its own panic
// containment because the window coordinator calls it from per-window
// worker goroutines, where an escaping panic would tear down the process
// instead of unwinding through runEngine's fence.
func runSchemeEngine(sys *System, opts TranOptions, base transient.Options) (res *Result, err error) {
	defer containPanic(&res, &err)
	switch opts.Scheme {
	case Serial:
		return transient.Run(sys, base)
	case Backward, Forward, Combined:
		return wpcore.Run(sys, wpcore.Options{
			Base:       base,
			Scheme:     coreScheme(opts.Scheme),
			Threads:    opts.Threads,
			DeltaRatio: opts.DeltaRatio,
		})
	default:
		return nil, fmt.Errorf("wavepipe: unknown scheme %d", opts.Scheme)
	}
}

// RunDeck builds and simulates a parsed deck, honouring its .TRAN, .IC and
// .OPTIONS cards (explicit TranOptions fields win over deck options; see
// Deck.ApplyTo for the precedence rules).
//
// Deprecated: new code should call RunDeckCtx, or Submit the deck source to
// a Client (NewService in-process, client.New over HTTP) to get queueing,
// artifact caching and streaming. This wrapper is kept so existing callers
// keep compiling.
func RunDeck(d *Deck, opts TranOptions) (*Result, error) {
	return RunDeckCtx(context.Background(), d, opts)
}

// RunDeckCtx is RunDeck under a context (see RunTransientCtx).
func RunDeckCtx(ctx context.Context, d *Deck, opts TranOptions) (*Result, error) {
	sys, err := d.Build()
	if err != nil {
		return nil, err
	}
	opts, err = d.ApplyTo(opts)
	if err != nil {
		return nil, err
	}
	return RunTransientCtx(ctx, sys, opts)
}

// baseOptions translates facade options into engine options, resolving node
// names to solution-vector indices. Pure translation: the options were
// already vetted by the single validate() path.
func baseOptions(sys *System, opts TranOptions) (transient.Options, error) {
	base := transient.Options{
		TStop:        opts.TStop,
		Method:       opts.Method,
		HInit:        opts.InitStep,
		UIC:          opts.UIC,
		Faults:       opts.Faults,
		DeviceBypass: opts.DeviceBypass,
		CoreBudget:   opts.CoreBudget,
		OnAccept:     opts.OnAccept,
	}
	ctrl := integrate.DefaultControl(opts.TStop)
	if opts.RelTol > 0 {
		ctrl.Tol.RelTol = opts.RelTol
	}
	if opts.AbsTol > 0 {
		ctrl.Tol.AbsTol = opts.AbsTol
	}
	if opts.MaxStep > 0 {
		ctrl.HMax = opts.MaxStep
	}
	base.Control = ctrl
	if len(opts.IC) > 0 {
		base.IC = make(map[int]float64, len(opts.IC))
		for name, v := range opts.IC {
			idx, ok := sys.Circuit.FindNode(name)
			if !ok {
				return base, fmt.Errorf("wavepipe: IC for unknown node %q", name)
			}
			if idx == Ground {
				continue
			}
			base.IC[idx] = v
		}
	}
	if len(opts.NodeSet) > 0 {
		base.NodeSet = make(map[int]float64, len(opts.NodeSet))
		for name, v := range opts.NodeSet {
			idx, ok := sys.Circuit.FindNode(name)
			if !ok {
				return base, fmt.Errorf("wavepipe: NODESET for unknown node %q", name)
			}
			if idx == Ground {
				continue
			}
			base.NodeSet[idx] = v
		}
	}
	if len(opts.Record) > 0 {
		base.Record = make([]int, len(opts.Record))
		for i, name := range opts.Record {
			idx, ok := sys.Circuit.FindNode(name)
			if !ok || idx == Ground {
				return base, fmt.Errorf("wavepipe: cannot record unknown node %q", name)
			}
			base.Record[i] = idx
		}
	}
	return base, nil
}
