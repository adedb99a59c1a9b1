package circuit

import "fmt"

// Lane support: the ensemble engine runs K parameter-variants of one
// topology as K serial runs on workspaces of one host System. All lanes share
// the host's symbolic work — the compiled Jacobian pattern and the
// fill-reducing ordering — while each lane's workspace owns its matrix values
// and F/Q/B/limiting buffers and evaluates its own variant's devices.
//
// The invariants that make sharing sound:
//   - BindLanes only succeeds for circuits structurally identical to the
//     host (same node names in order, same device sequence with the same
//     branch/state arity, same Reserve footprint, charge stored only where
//     the host stores some), so every lane device holds slot ids valid on
//     any clone of the host pattern and the host's charge-pass list covers
//     every lane.
//   - Lane workspaces assemble without the linear-stamp template, so per-lane
//     results are bit-identical to a serial run of the same variant.

// SetDevices overrides the device list this workspace's assembly paths
// evaluate, so a lane workspace compiled against the host pattern stamps its
// own variant's device instances. Load, LoadSplit and the charge pass honor
// the override; the incremental engine indexes the host System's devices and
// must not be combined with it (the ensemble refuses DeviceBypass). A nil devs
// restores the host circuit's devices.
func (ws *Workspace) SetDevices(devs []Device) {
	ws.devs = devs
	ws.chargeEvalers = nil // the charge pass dispatches to these instances
}

// Devices returns the devices the assembly paths iterate: the
// SetDevices override when there is one, else the host circuit's.
func (ws *Workspace) Devices() []Device {
	if ws.devs != nil {
		return ws.devs
	}
	return ws.Sys.Circuit.devices
}

// BindLanes binds a structurally identical variant circuit against this
// System's frozen Jacobian pattern: devices receive the same branch/state
// bases the host's Build assigned, and their Reserve calls are replayed
// through a slot lookup on the host pattern instead of a fresh Builder. On
// success every device in c holds slot ids valid on any clone of the host
// pattern; on mismatch (different nodes, device sequence, arity, or stamp
// footprint) an error identifies the first divergence and c's devices are
// left bound to possibly inconsistent indices — discard the circuit.
func (s *System) BindLanes(c *Circuit) error {
	host := s.Circuit
	if len(c.devices) != len(host.devices) {
		return fmt.Errorf("circuit %q: lane has %d devices, host %q has %d",
			c.Title, len(c.devices), host.Title, len(host.devices))
	}
	if len(c.nodeNames) != s.NumNodes {
		return fmt.Errorf("circuit %q: lane has %d nodes, host has %d",
			c.Title, len(c.nodeNames), s.NumNodes)
	}
	for i, name := range c.nodeNames {
		if host.nodeNames[i] != name {
			return fmt.Errorf("circuit %q: node %d is %q, host has %q",
				c.Title, i, name, host.nodeNames[i])
		}
	}
	branch := s.NumNodes
	state := 0
	charged := s.chargeDevs // cursor over the host's charge-pass list
	for i, d := range c.devices {
		h := host.devices[i]
		if d.Name() != h.Name() || d.Branches() != h.Branches() || d.States() != h.States() {
			return fmt.Errorf("circuit %q: device %d is %s(br=%d,st=%d), host has %s(br=%d,st=%d)",
				c.Title, i, d.Name(), d.Branches(), d.States(), h.Name(), h.Branches(), h.States())
		}
		// A lane iterates under the host's Linear(): a nonlinear model in a
		// lane of a linear host would be declared converged after one step.
		if s.linear && !linearDevice(d) {
			return fmt.Errorf("circuit %q: device %s is not linear, host %q is",
				c.Title, d.Name(), host.Title)
		}
		// A lane closes its points with the host's charge-pass list: a device
		// that books charge where the host's books none would never be asked
		// for it. (The other way round the pass finds nothing to book.)
		if len(charged) > 0 && int(charged[0]) == i {
			charged = charged[1:]
		} else if _, ok := d.(ChargeEvaler); ok {
			return fmt.Errorf("circuit %q: device %s stores charge or limiting state, host %q has none there",
				c.Title, d.Name(), host.Title)
		}
		d.Bind(branch, state)
		branch += d.Branches()
		state += d.States()
	}
	if branch != s.N || state != s.NumStates {
		return fmt.Errorf("circuit %q: lane binds %d unknowns/%d states, host has %d/%d",
			c.Title, branch, state, s.N, s.NumStates)
	}
	r := &Reserver{lookup: s.pattern}
	for _, d := range c.devices {
		d.Reserve(r)
		if r.lookupErr != nil {
			return fmt.Errorf("circuit %q: device %s: %w", c.Title, d.Name(), r.lookupErr)
		}
	}
	return nil
}

// NewLaneWorkspaces returns k fresh workspaces of s, Worker set to the lane
// index for trace attribution; the caller follows up with SetDevices to point
// each lane at its variant's device instances. The ensemble makes a lane's
// workspace when the lane is dealt, so this is BatchLoad's set-up and goes
// with it.
func (s *System) NewLaneWorkspaces(k int) []*Workspace {
	lanes := make([]*Workspace, k)
	for i := range lanes {
		lanes[i] = s.NewWorkspace()
		lanes[i].Worker = int16(i)
	}
	return lanes
}

// BatchLoad assembles several lane workspaces at one Newton iteration,
// device-outer, lane-inner. Nil entries in lanes are skipped. Per lane the
// operation sequence — zeroing, evaluation order, limiting capture, NodeGmin,
// clamps, fault injection — is exactly that of the serial Load, so each
// lane's assembled system is bit-identical to what its own Load(xs[i], ps[i])
// would produce.
//
// No engine calls it: the ensemble's lanes are serial runs, each with its own
// Load. It stays only because bench/layers.go times it; the benchmark PR of
// ROADMAP item 4 removes it together with circuit.batchload_ns_lane_op.
func BatchLoad(lanes []*Workspace, xs [][]float64, ps []LoadParams) {
	nd := 0
	for li, ws := range lanes {
		if ws != nil {
			ws.beginLoad(&ws.evalCtx, xs[li], ps[li], zeroAll)
			nd = max(nd, len(ws.Devices()))
		}
	}
	for di := 0; di < nd; di++ {
		for _, ws := range lanes {
			if ws == nil {
				continue
			}
			if dl := ws.Devices(); di < len(dl) {
				dl[di].Eval(&ws.evalCtx)
			}
		}
	}
	for li, ws := range lanes {
		if ws != nil {
			ws.finishLoad(xs[li], ps[li], ws.evalCtx.Limited)
		}
	}
}
