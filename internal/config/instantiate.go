package config

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/hostsim"
	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/orch"
	"repro/internal/sim"
)

// Choices carries the instantiation decisions — everything about *how* to
// simulate, none of it about *what* is simulated. This is the paper's
// second step: one System can be instantiated many ways.
type Choices struct {
	// Seed drives all randomness.
	Seed uint64
	// DefaultFidelity applies to hosts whose Fidelity matches Unset.
	DefaultFidelity core.Fidelity
	// FidelityOverride forces a fidelity per host name (optional).
	FidelityOverride map[string]core.Fidelity
	// HostParams maps a fidelity tier to detailed-host parameters; nil
	// picks QemuParams/Gem5Params.
	HostParams func(f core.Fidelity) hostsim.Params
	// NICParams configures the NIC model for detailed hosts; the zero
	// value picks nicsim.DefaultParams with the host's link rate.
	NICParams *nicsim.Params
	// PartitionOf assigns each switch (by name) to a network partition;
	// nil leaves the whole network in one component.
	PartitionOf func(switchName string) int
}

// Instance is a runnable instantiation. Sim is a regular orchestration
// configuration — callers can keep wiring onto it by hand, exactly as the
// paper lets users modify the emitted SimBricks configuration.
type Instance struct {
	Sim *orch.Simulation
	// Parts holds the network partition components.
	Parts []*netsim.Network
	// NetHosts maps protocol-level host names to their simulated hosts.
	NetHosts map[string]*netsim.Host
	// Detailed maps detailed host names to their host+NIC pairs.
	Detailed map[string]*instantiate.DetailedHost
	// Built exposes the underlying topology build.
	Built *netsim.Built

	hostSlot map[string]int // host name → topology slot, for placement math
}

// fidelityOf resolves a host's effective fidelity under the choices.
func (c Choices) fidelityOf(h *Host) core.Fidelity {
	if f, ok := c.FidelityOverride[h.Name]; ok {
		return f
	}
	if h.Fidelity != core.ProtocolLevel {
		return h.Fidelity
	}
	return c.DefaultFidelity
}

// Instantiate validates the system and assembles the simulation.
func (s *System) Instantiate(c Choices) (*Instance, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}

	// Translate to the topology layer.
	topo := &netsim.Topology{}
	swIdx := make(map[string]int, len(s.Switches))
	for _, sw := range s.Switches {
		swIdx[sw.Name] = topo.AddSwitch(sw.Name)
		topo.Switches[swIdx[sw.Name]].TC = sw.TC
	}
	hostSlot := make(map[string]int, len(s.Hosts))
	for _, h := range s.Hosts {
		slot := topo.AddHost(h.Name, s.autoIP(h), swIdx[h.Switch], h.LinkRate, h.LinkDelay)
		hostSlot[h.Name] = slot
		if c.fidelityOf(h) != core.ProtocolLevel {
			topo.MakeExternal(slot)
		}
	}
	for _, l := range s.Links {
		topo.AddLink(swIdx[l.A], swIdx[l.B], l.Rate, l.Delay)
	}

	var assign []int
	if c.PartitionOf != nil {
		assign = make([]int, len(topo.Switches))
		for _, sw := range s.Switches {
			p := c.PartitionOf(sw.Name)
			if p < 0 {
				return nil, fmt.Errorf("config: negative partition for switch %q", sw.Name)
			}
			assign[swIdx[sw.Name]] = p
		}
	}

	built := topo.Build("net", c.Seed, assign, nil)
	inst := &Instance{
		Sim:      orch.New(),
		Parts:    built.Parts,
		NetHosts: make(map[string]*netsim.Host),
		Detailed: make(map[string]*instantiate.DetailedHost),
		Built:    built,
		hostSlot: hostSlot,
	}
	instantiate.WirePartitions(inst.Sim, topo, built, true)

	// Install dataplanes.
	for _, sw := range s.Switches {
		if sw.Dataplane != nil {
			built.Switches[swIdx[sw.Name]].Dataplane = sw.Dataplane
		}
	}

	// Hosts: protocol-level apps bind directly; detailed hosts get a
	// host+NIC pair wired to their external port.
	hostParams := c.HostParams
	if hostParams == nil {
		hostParams = func(f core.Fidelity) hostsim.Params {
			if f == core.Detailed {
				return hostsim.Gem5Params()
			}
			return hostsim.QemuParams()
		}
	}
	for _, h := range s.Hosts {
		slot := hostSlot[h.Name]
		fid := c.fidelityOf(h)
		if fid == core.ProtocolLevel {
			nh := built.Hosts[slot]
			inst.NetHosts[h.Name] = nh
			if apps := h.Apps; len(apps) > 0 {
				nh.SetApp(netsim.AppFunc(func(hh *netsim.Host) {
					for _, a := range apps {
						a(hh)
					}
				}))
			}
			continue
		}
		np := nicsim.DefaultParams()
		np.Rate = h.LinkRate
		if c.NICParams != nil {
			np = *c.NICParams
		}
		dh := instantiate.NewDetailedHost(h.Name, topo.Hosts[slot].IP,
			hostParams(fid), np, c.Seed^uint64(slot+1))
		if h.Cores > 1 {
			dh.Host.SetCores(h.Cores)
		}
		if h.OscDriftPPM != 0 || h.OscOffset != 0 {
			dh.Host.Clock.Osc = hostsim.Oscillator{
				Offset: h.OscOffset, DriftPPM: h.OscDriftPPM,
			}
		}
		for _, app := range h.Apps {
			dh.Host.AddApp(hostsim.AppFunc(func(hh *hostsim.Host) { app(hh) }))
		}
		dh.Wire(inst.Sim, built.Parts[built.HostPart[slot]], built.Exts[slot])
		inst.Detailed[h.Name] = dh
	}
	return inst, nil
}

// RunSequential executes the instance until end on one scheduler.
func (i *Instance) RunSequential(end sim.Time) *sim.Scheduler {
	return i.Sim.RunSequential(end)
}

// RunCoupled executes the instance with one goroutine per component.
func (i *Instance) RunCoupled(end sim.Time) error {
	return i.Sim.RunCoupled(end)
}

// Plan resolves a placement against the instance's simulation; execute the
// plan with its Execute (or RunParallel / RunOptimistic).
func (i *Instance) Plan(p decomp.Placement) (*orch.ExecutionPlan, error) {
	return i.Sim.Plan(p)
}

// PartPlacement turns a per-partition group assignment — e.g. a coarse
// decomp.Strategy assignment lifted onto the built partitions with
// decomp.Coarsen — into a placement over ALL of the instance's components:
// partition i joins group partGroup[i], and each detailed host rides with
// the partition that owns its external port (host, NIC, and attachment
// partition co-locate, so the chatty PCI and Ethernet channels degrade to
// direct ports whenever the partition group allows it). With pairHostNIC
// false, detailed hosts and NICs instead get fresh per-component groups.
func (i *Instance) PartPlacement(name string, partGroup []int, pairHostNIC bool) (decomp.Placement, error) {
	if len(partGroup) != len(i.Parts) {
		return decomp.Placement{}, fmt.Errorf("config: %d part groups for %d partitions",
			len(partGroup), len(i.Parts))
	}
	groupOf := make(map[core.Component]int, len(i.Parts))
	for pi, part := range i.Parts {
		groupOf[part] = partGroup[pi]
	}
	if pairHostNIC {
		for name, dh := range i.Detailed {
			slot := i.hostSlot[name]
			g := partGroup[i.Built.HostPart[slot]]
			groupOf[dh.Host] = g
			groupOf[dh.NIC] = g
		}
	}
	return decomp.Placement{Name: name, Groups: instantiate.ComponentGroups(i.Sim, groupOf)}, nil
}

// Cores returns the component count (the paper's core accounting).
func (i *Instance) Cores() int { return i.Sim.NumComponents() }
