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
	// Reserve registers all Jacobian pattern slots the device will write.
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
	b := sparse.NewBuilder(n)
	r := &Reserver{b: b}
	for _, d := range c.devices {
		d.Reserve(r)
	}
	// Reserve every diagonal so gmin continuation can always shunt node
	// rows, and so the structural pattern never loses diagonals.
	diag := make([]int, numNodes)
	for i := 0; i < numNodes; i++ {
		diag[i] = b.Reserve(i, i)
	}
	m := b.Compile()
	// Detect completely floating nodes: a node row with only its reserved
	// diagonal and no device stamp is almost certainly a netlist error.
	touched := make([]bool, n)
	for _, rc := range r.touchedRows {
		if rc >= 0 {
			touched[rc] = true
		}
	}
	for i := 0; i < numNodes; i++ {
		if !touched[i] {
			return nil, fmt.Errorf("circuit %q: node %q has no device connected", c.Title, c.nodeNames[i])
		}
	}
	return &System{
		Circuit:     c,
		N:           n,
		NumNodes:    numNodes,
		NumBranches: n - numNodes,
		NumStates:   state,
		linear:      linear,
		pattern:     m,
		diagSlots:   diag,
		chargeDevs:  chargeDevices(c.devices, m, n, state),
	}, nil
}

// Reserver hands out Jacobian pattern slots during Build. In lookup mode
// (BindLanes) it resolves slots against a frozen host pattern instead of a
// Builder, recording the first miss as a structural-mismatch error.
type Reserver struct {
	b           *sparse.Builder
	lookup      *sparse.Matrix
	lookupErr   error
	touchedRows []int
}

// J reserves the Jacobian slot (row, col) and returns its id, or -1 when
// either index is Ground (stamps to -1 are discarded at Eval time).
func (r *Reserver) J(row, col int) int {
	if row == Ground || col == Ground {
		return -1
	}
	r.touchedRows = append(r.touchedRows, row)
	if r.lookup != nil {
		slot := r.lookup.SlotAt(row, col)
		if slot < 0 && r.lookupErr == nil {
			r.lookupErr = fmt.Errorf("stamp (%d,%d) not in host pattern", row, col)
		}
		return slot
	}
	return r.b.Reserve(row, col)
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

	pattern   *sparse.Matrix
	diagSlots []int

	// chargeDevs lists, in device order, the devices a charge pass visits
	// (see charge.go): the ones that book charge or limiting state.
	chargeDevs []int32

	// colPerm caches the fill-reducing column ordering of the Jacobian
	// pattern. The pattern never changes after Build, so every workspace's
	// solver shares one ordering instead of recomputing it — the ordering
	// is by far the most allocation-heavy step of a full factorization.
	colPermOnce sync.Once
	colPerm     []int

	// inc caches the Build-time incremental-assembly basis (the linear stamp
	// template); built lazily on the first workspace that enables device
	// bypass, nil when the circuit does not support it.
	incOnce sync.Once
	inc     *incBasis

	// reduced records how this System was derived from a larger circuit by
	// the parasitic-reduction pass (nil when built directly); see reduced.go.
	reduced *ReducedInfo
}

// fillOrdering returns the shared fill-reducing ordering, computing it on
// first use. Safe for concurrent callers. The computation goes through the
// sparse-level ordering cache, so sequential Builds of an identical deck
// (and the lanes of an ensemble) reuse one minimum-degree analysis instead
// of recomputing it per System.
func (s *System) fillOrdering() []int {
	s.colPermOnce.Do(func() {
		s.colPerm = sparse.SharedOrdering(s.pattern, sparse.OrderMinDegree)
	})
	return s.colPerm
}

// Linear reports whether the circuit equations are linear in the iterate:
// F = J_F·x and Q = J_Q·x with constant Jacobians, so the assembled matrix
// J_F + Alpha0·J_Q depends on the step alone and one full Newton step through
// its exact factorization is the solution. The property is found at Build —
// it is a fact about the device list, not something a caller asks for — and
// two layers act on it: the Newton iteration certifies such a step at once
// (newton.Iter.Step), and the step controller keeps its steps on short
// mantissas so that Alpha0, and with it the matrix, repeats bit for bit
// whenever a step does (transient.Stepper.SetStep).
func (s *System) Linear() bool { return s.linear }

// linearStoreBytes bounds the factor store of a linear system's solver (see
// sparse.Solver.StoreBytes). A linear matrix is a function of Alpha0 alone,
// so the store's working set is the number of distinct steps a run revisits.
// Measured on the clocked meshes of the suite, serial, full horizon: grid32
// holds 53 sets of 227 KB (11.7 MB) by the end and touches 36 of them (8.0
// MB) in one clock period; grid24 59 of 112 KB (6.5 MB), 41 a period; grid16
// 62 of 41 KB (2.5 MB), 43 a period. 32 MB holds the largest of those whole
// runs 2.7 times over, or the period of a mesh of four times the unknowns. A
// circuit whose steps do not come back within that (ladder400: 575 sets of 19
// KB; rlctree8: its 912-set period is 64 MB) fills the bound with chain
// factors that are as cheap to recompute as to look up, and stops there. The
// store belongs to the workspace and is freed with it.
const linearStoreBytes = 32 << 20

// newSolver returns the sparse solver of one workspace on matrix m: the
// shared fill ordering, and on a linear system the keyed factor store.
func (s *System) newSolver(m *sparse.Matrix) *sparse.Solver {
	sol := sparse.NewSolver(m, sparse.OrderMinDegree)
	sol.ColPerm = s.fillOrdering()
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

	// chargeEvalers is the charge pass's dispatch resolved for this
	// workspace's device list (see planCharges); nil until the first
	// LoadCharges, and again after SetDevices.
	chargeEvalers []ChargeEvaler

	evalCtx EvalCtx // the load paths' context, reused across passes

	// inc holds the per-workspace incremental-assembly state (the linear stamp
	// template LRU); nil unless SetDeviceBypass enabled it. Each workspace
	// owns an independent copy, so concurrent pipeline points never share it.
	inc *incState
}

// NewWorkspace allocates a workspace (one per concurrent worker).
func (s *System) NewWorkspace() *Workspace {
	m := s.pattern.Clone()
	return &Workspace{
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
}

// LoadParams bundles the knobs of one assembly pass.
type LoadParams struct {
	Time     float64 // waveform evaluation time
	Alpha0   float64 // d/dt Q ≈ Alpha0·Q(x) + history (0 for DC)
	Gmin     float64 // junction + node-diagonal shunt conductance
	NodeGmin float64 // extra conductance added on every node diagonal (gmin stepping)
	SrcScale float64 // source scaling in [0,1] (source stepping); 1 = full
	// NoLimit disables junction-voltage limiting: what is evaluated at a
	// solution — the charge pass that closes a point solve (LoadCharges sets
	// it), the sensitivity analysis, the Build-time probes — must see the
	// exact voltages, not clamped ones (the per-worker limiting state may be
	// stale there).
	NoLimit bool
	// ClampIdx/ClampV/ClampG pull the listed node unknowns toward target
	// voltages through a conductance ClampG — the mechanism behind
	// .NODESET's first operating-point pass.
	ClampIdx []int
	ClampV   []float64
	ClampG   float64
}

// Load assembles the Jacobian (dF/dx + Alpha0·dQ/dx) and the F, Q, B
// vectors at iterate x. Every assembly path — this loop, LoadSplit, the
// incremental engine and the lane sweep of lanes.go — is beginLoad, its own
// device sweep, finishLoad, on the calling goroutine and without a clock read.
func (ws *Workspace) Load(x []float64, p LoadParams) {
	if inc := ws.inc; inc != nil {
		if ws.loadIncremental(x, p) {
			return
		}
		inc.lastLinear = false
	}
	ctx := &ws.evalCtx
	ws.beginLoad(ctx, x, p, zeroAll)
	for _, d := range ws.Devices() {
		d.Eval(ctx)
	}
	ws.finishLoad(x, p, ctx.Limited)
}

// passZero names the workspace buffers an assembly pass starts from zero.
type passZero uint8

const (
	zeroM  passZero = 1 << iota // the Jacobian values
	zeroFB                      // F and B
	zeroQ
	zeroVectors = zeroFB | zeroQ      // the incremental sweep: a template copy overwrites M whole
	zeroAll     = zeroM | zeroVectors // every full assembly
)

// beginLoad opens an assembly pass at iterate x: the buffers named in zero
// are cleared and ctx is pointed at the workspace buffers under p.
func (ws *Workspace) beginLoad(ctx *EvalCtx, x []float64, p LoadParams, zero passZero) {
	if zero&zeroM != 0 {
		clear(ws.M.Values)
	}
	if zero&zeroFB != 0 {
		clear(ws.F)
		clear(ws.B)
	}
	if zero&zeroQ != 0 {
		clear(ws.Q)
	}
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
// assembly fault.
func (ws *Workspace) finishLoad(x []float64, p LoadParams, limited bool) {
	ws.Limited = limited
	if p.NodeGmin > 0 {
		for i, slot := range ws.Sys.diagSlots {
			ws.M.Add(slot, p.NodeGmin)
			ws.F[i] += p.NodeGmin * x[i]
		}
	}
	if p.ClampG > 0 {
		for k, i := range p.ClampIdx {
			if i < 0 || i >= ws.Sys.NumNodes {
				continue
			}
			ws.M.Add(ws.Sys.diagSlots[i], p.ClampG)
			ws.F[i] += p.ClampG * (x[i] - p.ClampV[k])
		}
	}
	// Injected assembly fault (tests only; Faults is nil otherwise). NoLimit
	// loads are spared, as is the charge pass, which never comes here: what
	// is evaluated after convergence feeds the integration history, and
	// poisoning it would corrupt that history behind the recovery machinery's
	// back instead of failing the solve in front of it.
	if ws.Faults != nil && !p.NoLimit {
		if cls, ok := ws.Faults.At(faults.SiteLoad, p.Time); ok && cls == faults.NonFinite {
			ws.F[0] = math.NaN()
		}
	}
}

// LoadSplit assembles dF/dx into M and dQ/dx into MC separately at the
// iterate x — the small-signal linearization AC analysis needs. Unlike
// Load it never folds Alpha0 into the Jacobian.
func (ws *Workspace) LoadSplit(x []float64, p LoadParams) {
	if ws.MC == nil {
		ws.MC = ws.M.Clone()
	}
	ws.MC.Zero()
	p.Alpha0 = 0
	ctx := &ws.evalCtx
	ws.beginLoad(ctx, x, p, zeroAll)
	ctx.mq = ws.MC
	for _, d := range ws.Devices() {
		d.Eval(ctx)
	}
	ws.finishLoad(x, p, ctx.Limited)
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

	m  *sparse.Matrix
	mq *sparse.Matrix // non-nil during split (G/C) assembly
	F  []float64
	Q  []float64
	B  []float64

	// wroteQ is non-nil only during the Build-time charge probe (see
	// chargeDevices): AddQ sets it, which is how a device that stores charge
	// without being a ChargeEvaler is found.
	wroteQ *bool

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

// AddJ accumulates a static-Jacobian (dF/dx) entry. slot -1 is discarded.
func (e *EvalCtx) AddJ(slot int, v float64) {
	if slot >= 0 {
		e.m.Add(slot, v)
	}
}

// AddJQ accumulates a reactive-Jacobian (dQ/dx) entry, scaled by Alpha0 —
// or routed unscaled into the separate C matrix during a split assembly
// (AC analysis).
func (e *EvalCtx) AddJQ(slot int, v float64) {
	if slot < 0 {
		return
	}
	if e.mq != nil {
		e.mq.Add(slot, v)
		return
	}
	e.m.Add(slot, e.Alpha0*v)
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
		if e.wroteQ != nil {
			*e.wroteQ = true
		}
		e.Q[i] += v
	}
}

// AddB accumulates a source term into row i, scaled by SrcScale.
func (e *EvalCtx) AddB(i int, v float64) {
	if i != Ground {
		e.B[i] += e.SrcScale * v
	}
}
