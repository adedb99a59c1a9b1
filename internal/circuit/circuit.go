// Package circuit provides the modified-nodal-analysis (MNA) backbone: node
// and branch bookkeeping, the Device stamping contract, and compiled Systems
// with per-worker evaluation Workspaces.
//
// The circuit DAE is kept in the residual form
//
//	R(x, t) = F(x) + d/dt Q(x) − B(t) = 0
//
// where x stacks node voltages and branch currents, F collects static
// (resistive) currents, Q collects charges and fluxes, and B collects
// source terms. Devices stamp F, Q, B and the Jacobians dF/dx and dQ/dx;
// the integration engines replace d/dt Q by a discretization
// Alpha0·Q(x) + (history terms) and solve with Newton's method.
package circuit

import (
	"fmt"
	"math"
	"sync"

	"wavepipe/internal/faults"
	"wavepipe/internal/sparse"
	"wavepipe/internal/trace"
)

// Ground is the node index of the reference node. Stamps addressed to
// Ground are discarded.
const Ground = -1

// Device is the contract every circuit element implements. Devices must be
// stateless with respect to Eval: per-instance mutable state (junction
// limiting history) lives in the per-worker state slices of the EvalCtx, at
// offsets assigned through Bind. This is what makes concurrent evaluation
// of the same circuit at different time points safe.
type Device interface {
	// Name returns the instance name (for example "R12" or "M3").
	Name() string
	// Branches returns how many extra current unknowns the device needs.
	Branches() int
	// States returns how many per-worker state slots the device needs.
	States() int
	// Bind tells the device the base index of its branch unknowns (an
	// absolute index into the solution vector) and of its state slots.
	Bind(branch0, state0 int)
	// Reserve registers every Jacobian entry the device will write and keeps
	// the position Reserver.J returns for each (Build calls it twice).
	Reserve(r *Reserver)
	// Eval accumulates the device contribution at the iterate in ctx.
	Eval(ctx *EvalCtx)
}

// Circuit is a netlist under construction: a set of named nodes and device
// instances. Build compiles it into a System.
type Circuit struct {
	Title     string
	nodeNames []string
	nodeIndex map[string]int
	devices   []Device
}

// New returns an empty circuit.
func New(title string) *Circuit {
	return &Circuit{Title: title, nodeIndex: make(map[string]int)}
}

// NewSized returns an empty circuit with room for about nodes nodes and
// devices devices, so that a deck parser that knows its line count builds
// the node table and device list without regrowing them.
func NewSized(title string, nodes, devices int) *Circuit {
	return &Circuit{
		Title:     title,
		nodeNames: make([]string, 0, nodes),
		nodeIndex: make(map[string]int, nodes),
		devices:   make([]Device, 0, devices),
	}
}

// Node returns the index for the named node, creating it on first use.
// The names "0", "gnd" and "GND" denote the ground node.
func (c *Circuit) Node(name string) int {
	if name == "0" || name == "gnd" || name == "GND" {
		return Ground
	}
	if i, ok := c.nodeIndex[name]; ok {
		return i
	}
	i := len(c.nodeNames)
	c.nodeNames = append(c.nodeNames, name)
	c.nodeIndex[name] = i
	return i
}

// FindNode returns the index of a previously created node.
func (c *Circuit) FindNode(name string) (int, bool) {
	if name == "0" || name == "gnd" || name == "GND" {
		return Ground, true
	}
	i, ok := c.nodeIndex[name]
	return i, ok
}

// NodeName returns the name of node i (or "0" for Ground).
func (c *Circuit) NodeName(i int) string {
	if i == Ground {
		return "0"
	}
	return c.nodeNames[i]
}

// NumNodes returns the number of non-ground nodes created so far.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

// Add appends a device instance.
func (c *Circuit) Add(d Device) { c.devices = append(c.devices, d) }

// Devices returns the device instances (shared slice; do not mutate).
func (c *Circuit) Devices() []Device { return c.devices }

// Build compiles the circuit: assigns branch and state indices, reserves
// the Jacobian pattern and freezes it into a System.
func (c *Circuit) Build() (*System, error) {
	if len(c.devices) == 0 {
		return nil, fmt.Errorf("circuit %q: no devices", c.Title)
	}
	numNodes := len(c.nodeNames)
	branch := numNodes
	state := 0
	linear := true
	for _, d := range c.devices {
		d.Bind(branch, state)
		branch += d.Branches()
		state += d.States()
		linear = linear && linearDevice(d)
	}
	n := branch
	// First pass: record every stamp's (row, col). A node row no device
	// stamps is almost certainly a netlist error.
	b := sparse.NewBuilder(n)
	r := &Reserver{b: b, touched: make([]bool, n)}
	for _, d := range c.devices {
		d.Reserve(r)
	}
	for i := 0; i < numNodes; i++ {
		if !r.touched[i] {
			return nil, fmt.Errorf("circuit %q: node %q has no device connected", c.Title, c.nodeNames[i])
		}
	}
	// Reserve every diagonal so gmin continuation can always shunt node
	// rows, and so the structural pattern never loses diagonals.
	for i := 0; i < numNodes; i++ {
		b.Reserve(i, i)
	}
	m := b.Compile()
	// Second pass: every device stamp learns its position in the value
	// array, the lookup BindLanes replays against a host pattern.
	r = &Reserver{lookup: m}
	for _, d := range c.devices {
		d.Reserve(r)
	}
	if r.lookupErr != nil {
		return nil, fmt.Errorf("circuit %q: %w", c.Title, r.lookupErr)
	}
	diag := make([]int, numNodes)
	for i := range diag {
		diag[i] = m.SlotAt(i, i)
	}
	return &System{
		Circuit:     c,
		N:           n,
		NumNodes:    numNodes,
		NumBranches: n - numNodes,
		NumStates:   state,
		linear:      linear,
		pattern:     m,
		diagPos:     diag,
	}, nil
}

// Reserver collects a device's Jacobian stamps during Build. In its first
// pass it records each (row, col) into a Builder and marks the row touched;
// in lookup mode (Build's second pass, BindLanes) it resolves each against a
// frozen pattern to a position in the value array, recording the first miss
// as a structural-mismatch error.
type Reserver struct {
	b         *sparse.Builder
	touched   []bool
	lookup    *sparse.Matrix
	lookupErr error
}

// J reserves the Jacobian entry (row, col) and returns its position, or -1
// when either index is Ground (stamps to -1 are discarded at Eval time) and
// during the first pass, which hands out no positions.
func (r *Reserver) J(row, col int) int {
	if row == Ground || col == Ground {
		return -1
	}
	if r.lookup != nil {
		pos := r.lookup.SlotAt(row, col)
		if pos < 0 && r.lookupErr == nil {
			r.lookupErr = fmt.Errorf("stamp (%d,%d) not in host pattern", row, col)
		}
		return pos
	}
	r.touched[row] = true
	r.b.Reserve(row, col)
	return -1
}

// System is a compiled circuit: a frozen Jacobian pattern plus the device
// list. A System is immutable and safe to share across workers; all mutable
// evaluation state lives in Workspaces.
type System struct {
	Circuit     *Circuit
	N           int // total unknowns (nodes + branches)
	NumNodes    int
	NumBranches int
	NumStates   int

	// linear is fixed at Build: every device is a LinearStamper without
	// limiting state (see Linear).
	linear bool

	pattern *sparse.Matrix
	diagPos []int

	// colPerm caches the fill-reducing column ordering of the Jacobian
	// pattern. The pattern never changes after Build, so every workspace's
	// solver shares one ordering instead of recomputing it — the ordering
	// is by far the most allocation-heavy step of a full factorization.
	colPermOnce sync.Once
	colPerm     []int

	// reduced records how this System was derived from a larger circuit by
	// the parasitic-reduction pass (nil when built directly); see reduced.go.
	reduced *ReducedInfo
}

// fillOrdering returns the shared fill-reducing ordering, computing it on
// first use. Safe for concurrent callers. The computation goes through the
// sparse-level ordering cache, so sequential Builds of an identical deck
// (and the lanes of an ensemble) reuse one minimum-fill analysis instead of
// recomputing it per System.
func (s *System) fillOrdering() []int {
	s.colPermOnce.Do(func() {
		s.colPerm = sparse.SharedOrdering(s.pattern)
	})
	return s.colPerm
}

// Linear reports whether the circuit equations are linear in the iterate:
// F = J_F·x and Q = J_Q·x with constant Jacobians, so the assembled matrix
// J_F + Alpha0·J_Q depends on the step alone and a point is the solution of
// (J_F + Alpha0·J_Q)·x = B − qhist. The property is found at Build — it is a
// fact about the device list, not something a caller asks for — and three
// layers act on it: every workspace assembles through its stamp template
// (incremental.go), a point is one solve for its iterate (newton.Iter.Direct,
// chosen by the transient point solver and the operating point), and the
// step controller keeps its steps on short mantissas so that Alpha0, and with
// it the matrix, repeats bit for bit whenever a step does
// (transient.Stepper.SetStep).
func (s *System) Linear() bool { return s.linear }

// linearStoreBytes bounds the factor store of a linear system's solver (see
// sparse.Solver.StoreBytes). A linear matrix is a function of Alpha0 alone: a
// load keys its request by Alpha0 (Load), and the store answers a key it has
// seen with no blend, hash or compare, and a new one from the matrix values
// (two steps can blend to one matrix). The values answer about 2 % of a
// mesh's reuses, each for a key a few ulps from one stored: serial grid32 8
// of 402, and without them it refactors 60 times, not 52. A set costs its
// factors and one copy of the values, its keys next to nothing, so the working
// set is the number of distinct matrices a run revisits. Measured on the
// clocked meshes of the suite, serial, full horizon, under the minimum-fill
// order: grid32 holds 53 sets of 213 KB (11.0 MB) by the end and touches 36
// of them (7.5 MB) in one clock period; grid24 59 of 108 KB (6.2 MB), 41 a
// period; grid16 62 of 40 KB (2.4 MB), 43 a period. 32 MB holds the largest
// of those whole runs 2.9 times over, or the period of a mesh of four times
// the unknowns. A circuit whose steps do not come back within that (ladder400:
// 575 sets of 19 KB; rlctree8: its 912-set period is 64 MB) fills the bound
// with chain factors that are as cheap to recompute as to look up, and stops
// there. The store belongs to the workspace and is freed with it.
const linearStoreBytes = 32 << 20

// newSolver returns the sparse solver of one workspace on matrix m: the
// shared fill ordering, and on a linear system the keyed factor store.
func (s *System) newSolver(m *sparse.Matrix) *sparse.Solver {
	sol := sparse.NewSolver(m, s.fillOrdering())
	if s.linear {
		sol.StoreBytes = linearStoreBytes
	}
	return sol
}

// Prewarm eagerly computes the lazily derived artifacts that every run of
// this System shares — today the fill-reducing column ordering. The artifact
// cache calls it on insert so a cache hit skips straight to timestepping
// without paying the symbolic analysis on its first factorization.
func (s *System) Prewarm() { s.fillOrdering() }

// PatternNNZ returns the structural nonzero count of the MNA pattern. It is
// part of the circuit fingerprint durable checkpoints validate on resume.
func (s *System) PatternNNZ() int { return s.pattern.NNZ() }

// Workspace owns the mutable buffers one worker needs to assemble and solve
// the circuit equations: a value clone of the Jacobian, the F/Q/B vectors,
// the nonlinear limiting state, and a sparse solver with its reusable
// factorization.
type Workspace struct {
	Sys    *System
	M      *sparse.Matrix
	Solver *sparse.Solver
	F      []float64 // static currents
	Q      []float64 // charges / fluxes
	B      []float64 // source terms
	SPrev  []float64 // limiting state: previous Newton iterate
	SNext  []float64 // limiting state: current Newton iterate
	// Limited reports whether any device clamped its controlling voltage
	// during the last Load. An iterate produced under active limiting must
	// not be declared converged (the linearization is not the true model).
	Limited bool

	// MC holds dQ/dx after LoadSplit (AC analysis); nil until first use.
	MC *sparse.Matrix

	// Faults is the per-run fault-injection harness (nil in production
	// runs — every check site is nil-safe). It is shared by all solver
	// layers operating on this workspace.
	Faults *faults.Injector

	// Abort is the run's cooperative stop flag (nil in unguarded runs —
	// every poll site is nil-safe). The Newton loop polls it once per
	// iteration so a tripped deadline or watchdog interrupts even a hung
	// solve at the next iteration boundary.
	Abort *faults.Abort

	// Trace is the run's event stream (nil when no observer is attached —
	// every emission site is nil-safe, costing one pointer test). Worker
	// identifies this workspace's lane in the trace (-1 when the run is
	// serial / unattributed).
	Trace  *trace.Tracer
	Worker int16

	// devs, when non-nil, overrides the device list the assembly paths
	// evaluate (see SetDevices in lanes.go — ensemble lane variants).
	devs []Device

	evalCtx EvalCtx // the load paths' context, reused across passes

	// tmpl is the stamp template of this workspace's devices (incremental.go),
	// made on the first load.
	tmpl *stampTemplate
}

// NewWorkspace allocates a workspace (one per concurrent worker).
func (s *System) NewWorkspace() *Workspace {
	m := s.pattern.Clone()
	ws := &Workspace{
		Sys:    s,
		M:      m,
		Solver: s.newSolver(m),
		F:      make([]float64, s.N),
		Q:      make([]float64, s.N),
		B:      make([]float64, s.N),
		SPrev:  make([]float64, s.NumStates),
		SNext:  make([]float64, s.NumStates),
		Worker: -1,
	}
	ws.Solver.Assemble = ws.blend
	return ws
}

// JunctionGmin is the junction shunt conductance every analysis loads with
// (LoadParams.Gmin): SPICE's GMIN.
const JunctionGmin = 1e-12

// LoadParams bundles the knobs of one assembly pass.
type LoadParams struct {
	Time     float64 // waveform evaluation time
	Alpha0   float64 // d/dt Q ≈ Alpha0·Q(x) + history (0 for DC)
	Gmin     float64 // junction + node-diagonal shunt conductance
	NodeGmin float64 // extra conductance added on every node diagonal (gmin stepping)
	SrcScale float64 // source scaling in [0,1] (source stepping); 1 = full
	// NoLimit disables junction-voltage limiting in the swept devices: what
	// is evaluated at a solution — the charge pass that closes a point solve
	// (BookCharges sets it), the sensitivity analysis, the template probe —
	// must see the exact voltages, not clamped ones (the per-worker limiting
	// state may be stale there).
	NoLimit bool
	// ClampIdx/ClampV/ClampG pull the listed node unknowns toward target
	// voltages through a conductance ClampG — the mechanism behind
	// .NODESET's first operating-point pass.
	ClampIdx []int
	ClampV   []float64
	ClampG   float64
}

// Load assembles the Jacobian (dF/dx + Alpha0·dQ/dx) and the F, Q, B
// vectors at iterate x through the stamp template, which sweeps only the
// nonlinear devices (none on a linear System). NoLimit and SrcScale reach the
// swept devices and the sources; the template's linear part depends on
// neither. Every assembly path — this one, LoadSplit and LoadSources — is
// beginLoad, the template, finishLoad, on the calling goroutine and without a
// clock read.
func (ws *Workspace) Load(x []float64, p LoadParams) {
	ctx, tp := ws.loadSources(x, p)
	if ws.Sys.linear {
		ws.Solver.Defer(p.Alpha0)
	} else {
		ws.blend(p.Alpha0)
		ws.Solver.Written()
	}
	ws.sweepNonlinear(ctx, tp, x, p)
}

// Matrix returns the Jacobian the last Load assembled. A load of a linear
// System leaves its blend to the solver (see Load), so a reader of the
// values asks here rather than reading M.
func (ws *Workspace) Matrix() *sparse.Matrix { return ws.Solver.Materialize() }

// writeM returns M for a load to add to: a deferred blend is assembled first,
// and the request is keyed by its values from then on.
func (ws *Workspace) writeM() *sparse.Matrix {
	m := ws.Matrix()
	ws.Solver.Written()
	return m
}

// passZero names the workspace buffers an assembly pass starts from zero.
type passZero uint8

const (
	zeroF passZero = 1 << iota // static currents
	zeroQ                      // charges
	zeroB                      // source terms
)

// zero clears the workspace buffers named in z.
func (ws *Workspace) zero(z passZero) {
	if z&zeroF != 0 {
		clear(ws.F)
	}
	if z&zeroQ != 0 {
		clear(ws.Q)
	}
	if z&zeroB != 0 {
		clear(ws.B)
	}
}

// beginLoad opens an assembly pass at iterate x: the buffers named in z are
// cleared and ctx is pointed at the workspace buffers under p.
func (ws *Workspace) beginLoad(ctx *EvalCtx, x []float64, p LoadParams, z passZero) {
	ws.zero(z)
	*ctx = EvalCtx{
		X:        x,
		T:        p.Time,
		Alpha0:   p.Alpha0,
		Gmin:     p.Gmin,
		SrcScale: p.SrcScale,
		NoLimit:  p.NoLimit,
		SPrev:    ws.SPrev,
		SNext:    ws.SNext,
		m:        ws.M,
		F:        ws.F,
		Q:        ws.Q,
		B:        ws.B,
	}
}

// finishLoad closes an assembly pass: the limiting flag the sweep gathered,
// the gmin-stepping node conductances, the .NODESET clamps and a scheduled
// assembly fault, which poisons B. The conductances add their currents at x
// to F; a source load (x nil) assembles no F, and its clamps add their
// targets' currents to B instead.
func (ws *Workspace) finishLoad(x []float64, p LoadParams, limited bool) {
	ws.Limited = limited
	if p.NodeGmin > 0 {
		m := ws.writeM()
		for i, pos := range ws.Sys.diagPos {
			m.Add(pos, p.NodeGmin)
			if x != nil {
				ws.F[i] += p.NodeGmin * x[i]
			}
		}
	}
	if p.ClampG > 0 {
		m := ws.writeM()
		for k, i := range p.ClampIdx {
			if i < 0 || i >= ws.Sys.NumNodes {
				continue
			}
			m.Add(ws.Sys.diagPos[i], p.ClampG)
			if x != nil {
				ws.F[i] += p.ClampG * (x[i] - p.ClampV[k])
			} else {
				ws.B[i] += p.ClampG * p.ClampV[k]
			}
		}
	}
	// Injected assembly fault (tests only; Faults is nil otherwise). NoLimit
	// loads are spared, as is the charge pass, which never comes here: what
	// is evaluated after convergence feeds the integration history, and
	// poisoning it would corrupt that history behind the recovery machinery's
	// back instead of failing the solve in front of it.
	if ws.Faults != nil && !p.NoLimit {
		if cls, ok := ws.Faults.At(faults.SiteLoad, p.Time); ok && cls == faults.NonFinite {
			ws.B[0] = math.NaN()
		}
	}
}

// LoadSplit assembles dF/dx into M and dQ/dx into MC separately at the
// iterate x — the small-signal linearization AC analysis needs. Unlike Load
// it never folds Alpha0 into the Jacobian, and it writes M on a linear
// System too, for AC reads M and MC directly.
func (ws *Workspace) LoadSplit(x []float64, p LoadParams) {
	if ws.MC == nil {
		ws.MC = ws.M.Clone()
	}
	p.Alpha0 = 0
	ctx, tp := ws.loadSources(x, p)
	ws.blend(0)
	ws.Solver.Written()
	mc := ws.MC.Values
	clear(mc)
	for t, pos := range tp.pos {
		mc[pos] = tp.jq[t]
	}
	ctx.mq = ws.MC
	ws.sweepNonlinear(ctx, tp, x, p)
}

// ACSource is implemented by independent sources that carry a small-signal
// (AC) stimulus specification.
type ACSource interface {
	// StampAC accumulates the complex stimulus into the AC right-hand side.
	StampAC(b []complex128)
}

// Residual writes R = F + Alpha0·Q + qhist − B into r. qhist may be nil
// (DC analyses). r must have length N.
func (ws *Workspace) Residual(alpha0 float64, qhist, r []float64) {
	for i := range r {
		r[i] = ws.F[i] + alpha0*ws.Q[i] - ws.B[i]
	}
	if qhist != nil {
		for i := range r {
			r[i] += qhist[i]
		}
	}
}

// FlipState makes the state written by the last Eval pass the "previous"
// state for the next Newton iteration.
func (ws *Workspace) FlipState() {
	ws.SPrev, ws.SNext = ws.SNext, ws.SPrev
}

// CopyStateFrom copies the limiting state of another workspace (used when a
// speculative worker adopts the state of the worker whose point it follows).
func (ws *Workspace) CopyStateFrom(other *Workspace) {
	copy(ws.SPrev, other.SPrev)
	copy(ws.SNext, other.SNext)
}

// EvalCtx is the device evaluation context for one assembly pass.
type EvalCtx struct {
	X        []float64
	T        float64
	Alpha0   float64
	Gmin     float64
	SrcScale float64
	NoLimit  bool
	SPrev    []float64
	SNext    []float64
	// Templated says that the stamp template holds the linear part of every
	// LinearPartStamper: their Eval and EvalQ skip it in this pass.
	Templated bool

	m  *sparse.Matrix
	mq *sparse.Matrix // non-nil during split (G/C) assembly
	F  []float64
	Q  []float64
	B  []float64

	// Limited is set by devices that clamp a controlling voltage (for
	// example pn-junction limiting); it blocks convergence this iteration.
	Limited bool
}

// V returns the voltage of node i (0 for Ground). For branch unknowns it
// returns the branch current.
func (e *EvalCtx) V(i int) float64 {
	if i == Ground {
		return 0
	}
	return e.X[i]
}

// AddJ accumulates a static-Jacobian (dF/dx) entry at a position from
// Reserver.J; position -1 is discarded.
func (e *EvalCtx) AddJ(pos int, v float64) {
	if pos >= 0 {
		e.m.Add(pos, v)
	}
}

// AddJQ accumulates a reactive-Jacobian (dQ/dx) entry, scaled by Alpha0 —
// or routed unscaled into the separate C matrix during a split assembly
// (AC analysis).
func (e *EvalCtx) AddJQ(pos int, v float64) {
	if pos < 0 {
		return
	}
	if e.mq != nil {
		e.mq.Add(pos, v)
		return
	}
	e.m.Add(pos, e.Alpha0*v)
}

// AddF accumulates a static current into row i. Ground rows are discarded.
func (e *EvalCtx) AddF(i int, v float64) {
	if i != Ground {
		e.F[i] += v
	}
}

// AddQ accumulates a charge/flux into row i.
func (e *EvalCtx) AddQ(i int, v float64) {
	if i != Ground {
		e.Q[i] += v
	}
}

// AddB accumulates a source term into row i, scaled by SrcScale.
func (e *EvalCtx) AddB(i int, v float64) {
	if i != Ground {
		e.B[i] += e.SrcScale * v
	}
}
