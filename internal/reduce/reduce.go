// Package reduce implements structure-exploiting parasitic reduction: a
// Build-time topological pass that shrinks the MNA system before symbolic
// analysis ever sees it. It scans the circuit for linear-only internal
// nodes — nodes touched solely by R/C/L devices, carrying no sources and no
// protected (probed) names — and applies two transforms:
//
//   - Series merges (exact): an internal node joining exactly two resistors
//     or exactly two inductors is suppressed and the pair replaced by one
//     equivalent device (R' = R1+R2, L' = L1+L2). The suppressed voltage is
//     an affine combination of the endpoint voltages at every instant, so
//     merged waveforms are reconstructible without error.
//
//   - Uniform RC-ladder lumping (error-budgeted): a maximal run of interior
//     ladder nodes (two resistors in the path plus a grounded capacitor,
//     uniform values) is re-sectioned to roughly ceil(sqrt(1/Tol)) lumped
//     spans: span resistances are summed exactly and suppressed node
//     capacitances are lumped onto the nearest retained node. This is the
//     classic distributed-line approximation whose waveform error shrinks
//     quadratically with the section count; Tol = 0 disables it entirely
//     (exact mode).
//
// The pass is split into a Plan (topology and grouping decisions, computed
// once per deck) and Apply (value computation plus circuit construction,
// run per parameter variant), so ensemble lanes share one plan and keep the
// structurally identical circuits the batch engine requires. Apply returns
// the original circuit untouched when nothing transforms, which is what
// guarantees bit-identical results for exact-mode runs on circuits with no
// reducible structure.
package reduce

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"wavepipe/internal/circuit"
	"wavepipe/internal/device"
)

// Options configures a reduction plan.
type Options struct {
	// Tol is the waveform error budget for lossy transforms (RC-ladder
	// lumping). 0 selects exact mode: series merges only.
	Tol float64
	// Keep lists node names that must survive the pass (probes, recorded
	// nodes, .IC/.NODESET targets, deck .print references). An unknown name
	// fails with *UnknownNodeError.
	Keep []string
	// KeepDevices lists instance names (case-insensitive) whose terminals
	// must survive — the ensemble layer protects per-lane device overrides
	// this way. Names not present in the circuit are ignored here; the
	// ensemble front-end validates override names itself.
	KeepDevices []string
}

// UnknownNodeError is returned when Options.Keep names a node the circuit
// does not define: silently reducing away a node the caller meant to
// observe would be far worse than failing the run.
type UnknownNodeError struct {
	Node string
}

func (e *UnknownNodeError) Error() string {
	return fmt.Sprintf("reduce: keep list names unknown node %q", e.Node)
}

// Sections returns the lumped section count the error budget tol buys: the
// distributed-line approximation error of an s-section lumped ladder falls
// off as 1/s², so s = ceil(sqrt(1/tol)) keeps the waveform deviation near
// the budget. tol <= 0 returns 0 (lumping disabled).
func Sections(tol float64) int {
	if tol <= 0 {
		return 0
	}
	s := int(math.Ceil(math.Sqrt(1 / tol)))
	if s < 1 {
		s = 1
	}
	return s
}

// chain is one maximal series run of same-kind two-terminal devices
// (resistors or inductors) whose interior nodes are suppressed exactly.
type chain struct {
	kind     byte  // 'R' or 'L'
	devs     []int // device indices in path order, len = len(interior)+1
	interior []int // suppressed node indices in path order
	endA     int   // retained endpoint (node index or Ground)
	endB     int
}

// ladderRun is one maximal run of uniform RC-ladder interior nodes
// re-sectioned under the error budget.
type ladderRun struct {
	rDevs    []int // path resistors in order, len = len(interior)+1
	cDevs    []int // grounded capacitor of each interior node, len = len(interior)
	interior []int // interior node indices in path order
	endA     int   // anchors (node index or Ground)
	endB     int
	keepPos  []int // 0-based positions into interior that stay (sorted)
}

// Plan is the topology half of a reduction: which nodes are suppressed and
// how the surviving devices are grouped. A Plan is built once from a
// reference circuit and applied to every structurally identical variant.
type Plan struct {
	numNodes   int
	numDevices int
	tol        float64
	chains     []chain
	runs       []ladderRun
	removed    []bool // per original node
	removedDev []bool // per original device index
	empty      bool   // nothing transforms: Apply returns the input circuit
}

// Empty reports whether the plan performs no transformation (Apply will
// return the original circuit, guaranteeing bit-identical simulation).
func (p *Plan) Empty() bool { return p.empty }

// terminals appends to buf the node indices a device touches (including
// pure sensing terminals — a sensed node must survive). ok is false for
// device types the pass cannot analyze, which disables reduction for the
// whole circuit.
func terminals(d circuit.Device, buf []int) ([]int, bool) {
	switch t := d.(type) {
	case *device.Resistor:
		return append(buf, t.P, t.N), true
	case *device.Capacitor:
		return append(buf, t.P, t.N), true
	case *device.Inductor:
		return append(buf, t.P, t.N), true
	case *device.VSource:
		return append(buf, t.P, t.N), true
	case *device.ISource:
		return append(buf, t.P, t.N), true
	case *device.VCVS:
		return append(buf, t.P, t.N, t.CP, t.CN), true
	case *device.VCCS:
		return append(buf, t.P, t.N, t.CP, t.CN), true
	case *device.Diode:
		return append(buf, t.P, t.N), true
	case *device.MOSFET:
		return append(buf, t.D, t.G, t.S, t.B), true
	case *device.MOSFETEKV:
		return append(buf, t.D, t.G, t.S, t.B), true
	case *device.BJT:
		return append(buf, t.C, t.B, t.E), true
	default:
		return nil, false
	}
}

// otherEnd returns the far terminal of a two-terminal device seen from n.
func otherEnd(d circuit.Device, n int) int {
	switch t := d.(type) {
	case *device.Resistor:
		if t.P == n {
			return t.N
		}
		return t.P
	case *device.Capacitor:
		if t.P == n {
			return t.N
		}
		return t.P
	case *device.Inductor:
		if t.P == n {
			return t.N
		}
		return t.P
	}
	return n
}

// node classification values.
const (
	plain   = iota // not a candidate
	seriesR        // exactly two resistors
	seriesL        // exactly two inductors
	ladder         // two path resistors plus a grounded capacitor
)

// New builds a reduction plan for c under opts. The plan is value-free
// apart from the ladder uniformity check, so it can be applied to every
// parameter variant of the same topology. An unknown Options.Keep name
// returns *UnknownNodeError; a circuit containing devices the pass cannot
// analyze (or clone) yields an empty plan, never an error.
func New(c *circuit.Circuit, opts Options) (*Plan, error) {
	numNodes := c.NumNodes()
	devs := c.Devices()
	p := &Plan{
		numNodes:   numNodes,
		numDevices: len(devs),
		tol:        opts.Tol,
		removed:    make([]bool, numNodes),
		removedDev: make([]bool, len(devs)),
	}

	protected := make([]bool, numNodes)
	for _, name := range opts.Keep {
		idx, ok := c.FindNode(name)
		if !ok {
			return nil, &UnknownNodeError{Node: name}
		}
		if idx != circuit.Ground {
			protected[idx] = true
		}
	}

	// Incidence: every terminal of every device, deduplicated per device.
	// Any device the pass cannot analyze or clone disables the whole plan —
	// Apply must be able to re-instantiate every surviving device.
	// Each node's list starts in a shared slab; one touched by more than
	// three devices grows out of it.
	incident := make([][]int, numNodes)
	slab := make([]int, 3*numNodes)
	for n := range incident {
		incident[n] = slab[3*n : 3*n : 3*n+3]
	}
	keepDev := make(map[string]bool, len(opts.KeepDevices))
	for _, n := range opts.KeepDevices {
		keepDev[strings.ToLower(n)] = true
	}
	var buf [4]int
	for di, d := range devs {
		terms, ok := terminals(d, buf[:0])
		if !ok {
			p.empty = true
			return p, nil
		}
		if _, ok := d.(circuit.Renoder); !ok {
			p.empty = true
			return p, nil
		}
		prot := len(keepDev) > 0 && keepDev[strings.ToLower(d.Name())]
		for i, t := range terms {
			if t == circuit.Ground || slices.Contains(terms[:i], t) {
				continue
			}
			incident[t] = append(incident[t], di)
			if prot {
				protected[t] = true
			}
		}
	}

	// Classify nodes. A candidate node is touched only by the pattern's
	// devices, is not protected, and every path device leads somewhere else
	// (no self-loops).
	class := make([]int, numNodes)
	capOf := make([]int, numNodes) // ladder nodes: their grounded cap device
	for n := 0; n < numNodes; n++ {
		capOf[n] = -1
		if protected[n] {
			continue
		}
		inc := incident[n]
		switch len(inc) {
		case 2:
			r0, okR0 := devs[inc[0]].(*device.Resistor)
			r1, okR1 := devs[inc[1]].(*device.Resistor)
			if okR0 && okR1 && r0.P != r0.N && r1.P != r1.N {
				class[n] = seriesR
				continue
			}
			l0, okL0 := devs[inc[0]].(*device.Inductor)
			l1, okL1 := devs[inc[1]].(*device.Inductor)
			if okL0 && okL1 && l0.P != l0.N && l1.P != l1.N {
				class[n] = seriesL
			}
		case 3:
			nr, cdev := 0, -1
			for _, di := range inc {
				switch t := devs[di].(type) {
				case *device.Resistor:
					if t.P != t.N {
						nr++
					}
				case *device.Capacitor:
					if (t.P == n && t.N == circuit.Ground) || (t.N == n && t.P == circuit.Ground) {
						cdev = di
					}
				}
			}
			if nr == 2 && cdev >= 0 {
				class[n] = ladder
				capOf[n] = cdev
				// The cap goes last, so inc[:2] are the path resistors in order.
				incident[n] = append(slices.DeleteFunc(inc, func(di int) bool { return di == cdev }), cdev)
			}
		}
	}

	// Demote ladder candidates that share a resistor with a series-R
	// candidate: the two transforms must never claim adjacent nodes, so
	// every chain endpoint and every run anchor is guaranteed retained.
	for n := 0; n < numNodes; n++ {
		if class[n] != seriesR {
			continue
		}
		for _, di := range incident[n] {
			if o := otherEnd(devs[di], n); o != circuit.Ground && o != n && class[o] == ladder {
				class[o] = plain
			}
		}
	}

	// pathDevs lists the devices a walk may step through from a candidate
	// node of the given class (the grounded cap of a ladder node is not a
	// path edge).
	pathDevs := func(n int) []int {
		if class[n] == ladder {
			return incident[n][:2]
		}
		return incident[n]
	}

	visited := make([]bool, numNodes)
	// walk collects the maximal candidate path through seed for nodes of
	// seed's class. ok is false for closed loops of candidates (a floating
	// ring — left untouched).
	walk := func(seed int) (interior, pdevs []int, endA, endB int, ok bool) {
		cls := class[seed]
		// Find the left endpoint.
		prevDev := pathDevs(seed)[0]
		cur := seed
		next := otherEnd(devs[prevDev], cur)
		for next != circuit.Ground && class[next] == cls && !visited[next] {
			if next == seed {
				return nil, nil, 0, 0, false // closed candidate loop
			}
			cur = next
			pd := pathDevs(cur)
			if pd[0] == prevDev {
				prevDev = pd[1]
			} else {
				prevDev = pd[0]
			}
			next = otherEnd(devs[prevDev], cur)
		}
		endA = next
		// Traverse from endA through the chain.
		d := prevDev
		node := cur
		for {
			interior = append(interior, node)
			pdevs = append(pdevs, d)
			pd := pathDevs(node)
			if pd[0] == d {
				d = pd[1]
			} else {
				d = pd[0]
			}
			nx := otherEnd(devs[d], node)
			if nx == circuit.Ground || class[nx] != cls {
				pdevs = append(pdevs, d)
				endB = nx
				return interior, pdevs, endA, endB, true
			}
			node = nx
		}
	}

	for n := 0; n < numNodes; n++ {
		if visited[n] || (class[n] != seriesR && class[n] != seriesL) {
			continue
		}
		interior, pdevs, endA, endB, ok := walk(n)
		for _, m := range interior {
			visited[m] = true
		}
		if !ok {
			continue
		}
		kind := byte('R')
		if class[n] == seriesL {
			kind = 'L'
		}
		p.chains = append(p.chains, chain{kind: kind, devs: pdevs, interior: interior, endA: endA, endB: endB})
		for _, m := range interior {
			p.removed[m] = true
		}
		for _, di := range pdevs {
			p.removedDev[di] = true
		}
	}

	sections := Sections(opts.Tol)
	if sections > 0 {
		for n := 0; n < numNodes; n++ {
			if visited[n] || class[n] != ladder {
				continue
			}
			interior, pdevs, endA, endB, ok := walk(n)
			for _, m := range interior {
				visited[m] = true
			}
			if !ok {
				continue
			}
			m := len(interior)
			if m < sections+1 {
				continue // too short: lumping would not shrink it
			}
			if !uniformRun(devs, pdevs, interior, capOf) {
				continue
			}
			run := ladderRun{
				rDevs: pdevs, interior: interior, endA: endA, endB: endB,
				cDevs: make([]int, m),
			}
			for i, nd := range interior {
				run.cDevs[i] = capOf[nd]
			}
			// Retained positions: sections-1 interior nodes at (near-)equal
			// path spacing; positions are 1..m between anchors 0 and m+1.
			keepSet := map[int]bool{}
			for j := 1; j < sections; j++ {
				q := int(math.Round(float64(j) * float64(m+1) / float64(sections)))
				if q < 1 {
					q = 1
				}
				if q > m {
					q = m
				}
				keepSet[q] = true
			}
			for q := 1; q <= m; q++ {
				if keepSet[q] {
					run.keepPos = append(run.keepPos, q-1)
				}
			}
			p.runs = append(p.runs, run)
			kept := make([]bool, m)
			for _, k := range run.keepPos {
				kept[k] = true
			}
			for i, nd := range interior {
				if !kept[i] {
					p.removed[nd] = true
					p.removedDev[run.cDevs[i]] = true
				}
			}
			for _, di := range pdevs {
				p.removedDev[di] = true
			}
		}
	}

	if len(p.chains) == 0 && len(p.runs) == 0 {
		p.empty = true
	}
	return p, nil
}

// uniformRun reports whether a ladder run's segment values are uniform
// enough to lump: all path resistors within 1e-6 relative of the first, all
// interior caps within 1e-6 relative of the first. The error-budget model
// assumes a uniform distributed line; nonuniform runs are left intact.
func uniformRun(devs []circuit.Device, rDevs, interior []int, capOf []int) bool {
	r0 := devs[rDevs[0]].(*device.Resistor).R
	for _, di := range rDevs[1:] {
		if relDiff(devs[di].(*device.Resistor).R, r0) > 1e-6 {
			return false
		}
	}
	c0 := devs[capOf[interior[0]]].(*device.Capacitor).C
	for _, nd := range interior[1:] {
		if relDiff(devs[capOf[nd]].(*device.Capacitor).C, c0) > 1e-6 {
			return false
		}
	}
	return true
}

func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// Reduce plans and applies in one step (the single-run path).
func Reduce(c *circuit.Circuit, opts Options) (*circuit.Circuit, *circuit.ReducedInfo, error) {
	p, err := New(c, opts)
	if err != nil {
		return nil, nil, err
	}
	return p.Apply(c)
}

// Apply instantiates the plan against c, which must be structurally
// identical to the circuit the plan was built from (ensemble lanes:
// different values, same topology). It returns the reduced circuit plus the
// expansion record; when the plan is empty it returns c itself with a nil
// record, so callers can keep the original compiled System and its
// bit-identical results.
func (p *Plan) Apply(c *circuit.Circuit) (*circuit.Circuit, *circuit.ReducedInfo, error) {
	if p.empty {
		return c, nil, nil
	}
	devs := c.Devices()
	if c.NumNodes() != p.numNodes || len(devs) != p.numDevices {
		return nil, nil, fmt.Errorf("reduce: circuit does not match plan (%d nodes/%d devices, plan has %d/%d)",
			c.NumNodes(), len(devs), p.numNodes, p.numDevices)
	}

	nc := circuit.New(c.Title)
	nodeMap := make([]int, p.numNodes)
	for o := 0; o < p.numNodes; o++ {
		if p.removed[o] {
			nodeMap[o] = -1
		} else {
			nodeMap[o] = nc.Node(c.NodeName(o))
		}
	}
	remap := func(i int) int {
		if i == circuit.Ground {
			return circuit.Ground
		}
		return nodeMap[i]
	}

	info := &circuit.ReducedInfo{
		OrigNodes: make([]string, p.numNodes),
		NodeMap:   nodeMap,
		Expansion: make([][]circuit.ExpandTerm, p.numNodes),
		Tol:       p.tol,
	}
	for o := 0; o < p.numNodes; o++ {
		info.OrigNodes[o] = c.NodeName(o)
		if p.removed[o] {
			info.RemovedNodes++
		}
	}

	// Every suppressed node's expansion is a window of one array: at most
	// two terms each, one per anchor that is not Ground.
	terms := make([]circuit.ExpandTerm, 0, 2*info.RemovedNodes)
	expand := func(nd, endA, endB int, w float64) {
		start := len(terms)
		if endA != circuit.Ground {
			terms = append(terms, circuit.ExpandTerm{Node: remap(endA), W: 1 - w})
		}
		if endB != circuit.Ground {
			terms = append(terms, circuit.ExpandTerm{Node: remap(endB), W: w})
		}
		info.Expansion[nd] = terms[start:len(terms):len(terms)]
	}

	// Group emission is anchored at each group's smallest device index so
	// the reduced device order tracks the original order deterministically.
	chainAt := map[int]*chain{}
	for i := range p.chains {
		chainAt[minOf(p.chains[i].devs)] = &p.chains[i]
	}
	runAt := map[int]*ladderRun{}
	for i := range p.runs {
		key := minOf(p.runs[i].rDevs)
		for i2 := range p.runs[i].cDevs {
			if !p.removedDev[p.runs[i].cDevs[i2]] {
				continue
			}
			if p.runs[i].cDevs[i2] < key {
				key = p.runs[i].cDevs[i2]
			}
		}
		runAt[key] = &p.runs[i]
	}

	for i, d := range devs {
		if !p.removedDev[i] {
			rn, ok := d.(circuit.Renoder)
			if !ok {
				return nil, nil, fmt.Errorf("reduce: device %q (%T) cannot be re-instantiated", d.Name(), d)
			}
			nc.Add(rn.Renoded(remap))
			continue
		}
		if ch, ok := chainAt[i]; ok {
			if err := emitChain(nc, devs, ch, remap, expand); err != nil {
				return nil, nil, err
			}
		}
		if rn, ok := runAt[i]; ok {
			if err := emitRun(nc, devs, rn, remap, expand); err != nil {
				return nil, nil, err
			}
		}
	}
	info.RemovedDevices = len(devs) - len(nc.Devices())
	return nc, info, nil
}

func minOf(a []int) int {
	m := a[0]
	for _, v := range a[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// expandFunc records the two-anchor expansion of suppressed node nd with
// interpolation weight w toward endB (ground anchors contribute zero and are
// dropped).
type expandFunc func(nd, endA, endB int, w float64)

// emitChain adds the merged series device and records the exact expansion
// of each suppressed interior node (the resistive/inductive divider).
func emitChain(nc *circuit.Circuit, devs []circuit.Device, ch *chain, remap func(int) int, expand expandFunc) error {
	vals := make([]float64, len(ch.devs))
	total := 0.0
	for i, di := range ch.devs {
		switch t := devs[di].(type) {
		case *device.Resistor:
			if ch.kind != 'R' {
				return fmt.Errorf("reduce: plan mismatch: %q is a resistor in an inductor chain", t.Name())
			}
			vals[i] = t.R
		case *device.Inductor:
			if ch.kind != 'L' {
				return fmt.Errorf("reduce: plan mismatch: %q is an inductor in a resistor chain", t.Name())
			}
			vals[i] = t.L
		default:
			return fmt.Errorf("reduce: plan mismatch: %q (%T) in series chain", devs[di].Name(), devs[di])
		}
		total += vals[i]
	}
	name := devs[ch.devs[0]].Name()
	a, b := remap(ch.endA), remap(ch.endB)
	if ch.kind == 'R' {
		nc.Add(device.NewResistor(name, a, b, total))
	} else {
		nc.Add(device.NewInductor(name, a, b, total))
	}
	cum := 0.0
	for i, nd := range ch.interior {
		cum += vals[i]
		w := 0.5
		if total != 0 {
			w = cum / total
		}
		expand(nd, ch.endA, ch.endB, w)
	}
	return nil
}

// emitRun adds the lumped span resistors and nearest-anchor capacitors of a
// ladder run and records the resistive-interpolation expansion of each
// suppressed interior node.
func emitRun(nc *circuit.Circuit, devs []circuit.Device, run *ladderRun, remap func(int) int, expand expandFunc) error {
	m := len(run.interior)
	rvals := make([]float64, len(run.rDevs))
	for i, di := range run.rDevs {
		t, ok := devs[di].(*device.Resistor)
		if !ok {
			return fmt.Errorf("reduce: plan mismatch: %q (%T) in ladder run", devs[di].Name(), devs[di])
		}
		rvals[i] = t.R
	}
	cvals := make([]float64, m)
	for i, di := range run.cDevs {
		t, ok := devs[di].(*device.Capacitor)
		if !ok {
			return fmt.Errorf("reduce: plan mismatch: %q (%T) as ladder capacitor", devs[di].Name(), devs[di])
		}
		cvals[i] = t.C
	}

	// Anchor positions along the path: 0 = endA, m+1 = endB, interiors at
	// 1..m; rvals[i] joins position i to i+1.
	anchors := []int{0}
	for _, k := range run.keepPos {
		anchors = append(anchors, k+1)
	}
	anchors = append(anchors, m+1)
	nodeAt := func(pos int) int {
		switch pos {
		case 0:
			return run.endA
		case m + 1:
			return run.endB
		default:
			return run.interior[pos-1]
		}
	}

	// Span resistors: exact sums between consecutive anchors, added left to
	// right as the expansion weights below add them, so tot is spanR[j].
	spanR := make([]float64, len(anchors)-1)
	for j := range spanR {
		lo, hi := anchors[j], anchors[j+1]
		for _, r := range rvals[lo:hi] {
			spanR[j] += r
		}
		name := devs[run.rDevs[lo]].Name()
		nc.Add(device.NewResistor(name, remap(nodeAt(lo)), remap(nodeAt(hi)), spanR[j]))
	}

	// Suppressed caps lump onto the nearest anchor (ties go left); anchors
	// that are Ground absorb nothing, so their share shifts to the opposite
	// anchor of the span to conserve total capacitance. Both are indexed by
	// anchor; first is the position of its first contributor (0 = none).
	addCap := make([]float64, len(anchors))
	first := make([]int, len(anchors))
	j, cum := 0, 0.0 // q's span and the resistance from its left anchor to q
	for q := 1; q <= m; q++ {
		lo, hi := anchors[j], anchors[j+1]
		if q == hi { // a kept node: the next span starts here
			j, cum = j+1, 0
			continue
		}
		cum += rvals[q-1]
		k := j
		if q-lo > hi-q {
			k = j + 1
		}
		if nodeAt(anchors[k]) == circuit.Ground {
			k = 2*j + 1 - k // the span's other anchor
		}
		if nodeAt(anchors[k]) == circuit.Ground {
			continue // both anchors grounded: the cap has nowhere to live
		}
		addCap[k] += cvals[q-1]
		if first[k] == 0 {
			first[k] = q
		}

		// Expansion: resistive interpolation between the span anchors.
		w := 0.5
		if tot := spanR[j]; tot != 0 {
			w = cum / tot
		}
		expand(run.interior[q-1], nodeAt(lo), nodeAt(hi), w)
	}
	// Emit lumped caps in ascending anchor order for determinism.
	for k, pos := range anchors {
		if first[k] != 0 {
			nc.Add(device.NewCapacitor(devs[run.cDevs[first[k]-1]].Name(), remap(nodeAt(pos)), circuit.Ground, addCap[k]))
		}
	}
	return nil
}
