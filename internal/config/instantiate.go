package config

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/hostsim"
	"repro/internal/instantiate"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/orch"
)

// Choices carries the instantiation decisions — everything about *how* to
// simulate, none of it about *what* is simulated. This is the paper's
// second step: one System can be instantiated many ways.
type Choices struct {
	// Seed drives the network's randomness and the seeds of detailed hosts
	// that declare none.
	Seed uint64
	// DefaultFidelity applies to hosts whose Fidelity is ProtocolLevel.
	DefaultFidelity core.Fidelity
	// FidelityOverride forces a fidelity per host name (optional).
	FidelityOverride map[string]core.Fidelity
	// HostParams maps a fidelity tier to detailed-host parameters; nil
	// picks QemuParams/Gem5Params.
	HostParams func(f core.Fidelity) hostsim.Params
	// Partition assigns each switch, by index, to a network partition; nil
	// leaves the whole network in one component.
	Partition []int
}

// Instance is a runnable instantiation. Sim is a regular orchestration
// configuration — callers run it and can keep wiring onto it by hand,
// exactly as the paper lets users modify the emitted SimBricks
// configuration.
type Instance struct {
	Sim *orch.Simulation
	// Built is the network build: partitions, switches, host slots, and
	// each link's ifaces (Built.LinkIfaces).
	Built *netsim.Built
	// NetHosts maps protocol-level host names to their simulated hosts.
	NetHosts map[string]*netsim.Host
	// Detailed maps detailed host names to their host+NIC pairs.
	Detailed map[string]*instantiate.DetailedHost
}

// fidelityOf resolves a host's effective fidelity under the choices.
func (c Choices) fidelityOf(name string, h *Host) core.Fidelity {
	if f, ok := c.FidelityOverride[name]; ok {
		return f
	}
	if h != nil && h.Fidelity != core.ProtocolLevel {
		return h.Fidelity
	}
	return c.DefaultFidelity
}

// Instantiate validates the system and assembles the simulation: the
// topology built under c's partitioning, every host slot whose fidelity
// is not protocol-level replaced by a host+NIC pair wired to its external
// port, in slot order, and every app bound to the host it was declared on.
func (s *System) Instantiate(c Choices) (*Instance, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// Build a copy whose External flags follow this instantiation's
	// fidelities, so one System instantiates any number of ways.
	topo := *s.Topo
	topo.Hosts = slices.Clone(topo.Hosts)
	for slot := range topo.Hosts {
		th := &topo.Hosts[slot]
		th.External = c.fidelityOf(th.Name, s.Hosts[slot]) != core.ProtocolLevel
		if th.External && th.Lazy {
			return nil, fmt.Errorf("%w: lazy host slot %q cannot be detailed", ErrBadChoice, th.Name)
		}
	}
	if c.Partition != nil && (len(c.Partition) != len(topo.Switches) || slices.Min(c.Partition) < 0) {
		return nil, fmt.Errorf("%w: partition %v for %d switches", ErrBadChoice, c.Partition, len(topo.Switches))
	}
	seeds := s.seeds(c.Seed, &topo)

	built := topo.Build("net", c.Seed, c.Partition, nil)
	inst := &Instance{
		Sim:      orch.New(),
		Built:    built,
		NetHosts: make(map[string]*netsim.Host),
		Detailed: make(map[string]*instantiate.DetailedHost),
	}
	instantiate.WirePartitions(inst.Sim, &topo, built, true)
	for sw, dp := range s.Dataplanes {
		built.Switches[sw].Dataplane = dp
	}

	hostParams := c.HostParams
	if hostParams == nil {
		hostParams = func(f core.Fidelity) hostsim.Params {
			if f == core.Detailed {
				return hostsim.Gem5Params()
			}
			return hostsim.QemuParams()
		}
	}
	var none Host
	for slot, th := range topo.Hosts {
		h := s.Hosts[slot]
		if h == nil {
			h = &none
		}
		if !th.External {
			if len(h.Apps) > 0 {
				apps := h.Apps
				built.MaterializeSlot(slot).SetApp(netsim.AppFunc(func(hh *netsim.Host) {
					for _, a := range apps {
						a(hh)
					}
				}))
			}
			if nh := built.Hosts[slot]; nh != nil {
				inst.NetHosts[th.Name] = nh
			}
			continue
		}
		np := nicsim.DefaultParams()
		np.Rate = th.Rate
		if h.NIC != nil {
			np = *h.NIC
		}
		dh := instantiate.NewDetailedHost(th.Name, th.IP, hostParams(c.fidelityOf(th.Name, h)), np, seeds[slot])
		dh.Host.Clock.Osc = h.Osc
		for _, app := range h.Apps {
			dh.Host.AddApp(hostsim.AppFunc(func(hh *hostsim.Host) { app(hh) }))
		}
		dh.Wire(inst.Sim, built.Parts[built.HostPart[slot]], built.Exts[slot])
		inst.Detailed[th.Name] = dh
	}
	return inst, nil
}

// seeds resolves the seed of every detailed (External) slot of topo: its
// declared one, or seed^(slot+1) moved past every seed already taken, so
// two detailed hosts share a seed only if both declared it.
func (s *System) seeds(seed uint64, topo *netsim.Topology) map[int]uint64 {
	seeds := make(map[int]uint64)
	taken := make(map[uint64]bool)
	for slot, h := range s.Hosts {
		if h != nil && h.seeded && topo.Hosts[slot].External {
			seeds[slot], taken[h.seed] = h.seed, true
		}
	}
	for slot, th := range topo.Hosts {
		if _, declared := seeds[slot]; declared || !th.External {
			continue
		}
		d := seed ^ uint64(slot+1)
		for taken[d] {
			d += 0x9e3779b97f4a7c15
		}
		seeds[slot], taken[d] = d, true
	}
	return seeds
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
	parts := i.Built.Parts
	if len(partGroup) != len(parts) {
		return decomp.Placement{}, fmt.Errorf("config: %d part groups for %d partitions",
			len(partGroup), len(parts))
	}
	groupOf := make(map[core.Component]int, len(parts))
	for pi, part := range parts {
		groupOf[part] = partGroup[pi]
	}
	if pairHostNIC {
		for slot, th := range i.Built.Topo().Hosts {
			if dh := i.Detailed[th.Name]; dh != nil && th.External {
				g := partGroup[i.Built.HostPart[slot]]
				groupOf[dh.Host] = g
				groupOf[dh.NIC] = g
			}
		}
	}
	return decomp.Placement{Name: name, Groups: instantiate.ComponentGroups(i.Sim, groupOf)}, nil
}
