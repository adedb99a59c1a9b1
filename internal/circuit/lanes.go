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
//     branch/state arity, same Reserve footprint), so every lane device holds
//     positions valid on any clone of the host pattern.
//   - A lane workspace builds its stamp template, and with it what its loads
//     sweep and its charge pass books, from its own devices, so per-lane
//     results are bit-identical to a serial run of the same variant.

// SetDevices overrides the device list this workspace's assembly paths
// evaluate, so a lane workspace compiled against the host pattern stamps its
// own variant's device instances. The stamp template and the solver's Alpha0
// keys were those of the old list: both are dropped, and the next load probes
// the new one. A nil devs restores the host circuit's devices.
//
// A linear System's loads leave M to the solver, which blends the template
// alone, so a device the template cannot hold would lose its matrix stamps:
// on such a System a list with a device that is not linear the way Build
// counts it (a LinearStamper without state) is refused, and the workspace
// keeps the list it had. BindLanes makes the same test of a lane's circuit,
// so that an ensemble refuses a bad lane at set-up, before any lane runs;
// this one holds for every list, bound by BindLanes or not.
func (ws *Workspace) SetDevices(devs []Device) error {
	if ws.Sys.linear {
		for i, d := range devs {
			if !linearDevice(d) {
				return fmt.Errorf("circuit %q: device %d (%s) is not linear, and a linear System's workspace assembles M from its template alone",
					ws.Sys.Circuit.Title, i, d.Name())
			}
		}
	}
	ws.Solver.Rekey()
	ws.devs = devs
	ws.tmpl = nil
	return nil
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
// through a position lookup on the host pattern instead of a fresh Builder. On
// success every device in c holds positions valid on any clone of the host
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
	for i, d := range c.devices {
		h := host.devices[i]
		if d.Name() != h.Name() || d.Branches() != h.Branches() || d.States() != h.States() {
			return fmt.Errorf("circuit %q: device %d is %s(br=%d,st=%d), host has %s(br=%d,st=%d)",
				c.Title, i, d.Name(), d.Branches(), d.States(), h.Name(), h.Branches(), h.States())
		}
		// A lane is solved under the host's Linear(): a nonlinear model in a
		// lane of a linear host would be solved as if linear, in one solve.
		if s.linear && !linearDevice(d) {
			return fmt.Errorf("circuit %q: device %s is not linear, host %q is",
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

// BatchLoad loads several lane workspaces at one Newton iteration, each
// lane's Load(xs[i], ps[i]) in turn. Nil entries in lanes are skipped.
//
// No engine calls it: the ensemble's lanes are serial runs, each with its own
// Load. It stays only because bench/layers.go times it; the benchmark PR of
// ROADMAP item 2 removes it together with circuit.batchload_ns_lane_op.
func BatchLoad(lanes []*Workspace, xs [][]float64, ps []LoadParams) {
	for i, ws := range lanes {
		if ws != nil {
			ws.Load(xs[i], ps[i])
		}
	}
}
