// Package config implements SplitSim's system-configuration abstraction:
// a declarative description of the *simulated system* — its network, the
// applications on its hosts, the dataplanes on its switches — kept strictly
// separate from the choice of how to simulate it. The paper expresses this
// as a hierarchy of Python objects; here the network is a netsim.Topology
// (hand-written or generated, e.g. netsim.ThreeTier) and config layers on it
// only what a topology does not carry, with ordinary Go (loops, functions,
// modules) as the meta-programming layer for assembling large systems.
//
// A System is turned into a runnable simulation by Instantiate
// (instantiate.go), which picks host-simulator fidelities, network
// partitioning, and wiring — and yields a regular orch.Simulation that the
// user can still modify by hand, exactly as the paper's instantiation
// emits a regular SimBricks configuration.
package config

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/hostsim"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/proto"
	"repro/internal/sim"
)

// App is an application written once against core.Host; the
// instantiation calls it on whichever host tier it built — the code-reuse
// property that lets one workload definition serve every fidelity.
type App func(h core.Host)

// Host is what one host slot carries beyond its netsim.TopoHost (name,
// address, attachment switch and link): the applications it runs and how
// a detailed instantiation of it is configured.
type Host struct {
	// Apps run on the host at simulation start.
	Apps []App
	// Fidelity is the desired simulation detail for this host; the zero
	// value defers to Choices.DefaultFidelity, and Choices.FidelityOverride
	// wins over both.
	Fidelity core.Fidelity
	// Osc is a detailed host's clock oscillator (zero: a perfect clock).
	Osc hostsim.Oscillator
	// NIC configures a detailed host's NIC; nil picks nicsim.DefaultParams
	// at the host's link rate.
	NIC *nicsim.Params

	seed   uint64
	seeded bool
}

// SetSeed declares the seed a detailed instantiation of the host gets,
// zero included. A detailed host without one gets a seed derived from
// Choices.Seed that no other detailed host of the instance has.
func (h *Host) SetSeed(seed uint64) *Host {
	h.seed, h.seeded = seed, true
	return h
}

// System is the complete description of a simulated system.
type System struct {
	// Topo is the network: switches, host slots and links.
	Topo *netsim.Topology
	// Hosts configures host slots by index into Topo.Hosts; a slot without
	// an entry is a host with no applications at the default fidelity.
	Hosts map[int]*Host
	// Dataplanes installs a programmable dataplane on switches, by index
	// into Topo.Switches.
	Dataplanes map[int]netsim.Dataplane
}

// topo returns the network, creating an empty one on first use.
func (s *System) topo() *netsim.Topology {
	if s.Topo == nil {
		s.Topo = &netsim.Topology{}
	}
	return s.Topo
}

// Host returns the configuration of host slot slot, creating it on first
// use.
func (s *System) Host(slot int) *Host {
	if s.Hosts == nil {
		s.Hosts = make(map[int]*Host)
	}
	h := s.Hosts[slot]
	if h == nil {
		h = &Host{}
		s.Hosts[slot] = h
	}
	return h
}

// AddSwitch appends a switch and returns its index.
func (s *System) AddSwitch(name string) int { return s.topo().AddSwitch(name) }

// AddHost attaches a host to the switch named swName at address
// HostIP(slot+1) and returns its configuration. An unknown switch name
// leaves the slot for Validate to report.
func (s *System) AddHost(name, swName string, rate int64, delay sim.Time) *Host {
	t := s.topo()
	slot := t.AddHost(name, proto.HostIP(uint32(len(t.Hosts)+1)), s.switchIndex(swName), rate, delay)
	return s.Host(slot)
}

// Connect links the switches named a and b.
func (s *System) Connect(a, b string, rate int64, delay sim.Time) {
	s.topo().AddLink(s.switchIndex(a), s.switchIndex(b), rate, delay)
}

// switchIndex returns the index of the switch named name, or -1.
func (s *System) switchIndex(name string) int {
	return slices.IndexFunc(s.topo().Switches, func(sw netsim.TopoSwitch) bool { return sw.Name == name })
}

// The error kinds Validate and Instantiate return, wrapped with detail;
// match them with errors.Is.
var (
	// ErrName: a host or switch name is empty or taken twice.
	ErrName = errors.New("config: bad name")
	// ErrUnknownSwitch: the network has no switch, or an index names no
	// switch (or host slot).
	ErrUnknownSwitch = errors.New("config: unknown switch")
	// ErrBadLink: a self loop, or a non-positive rate or delay.
	ErrBadLink = errors.New("config: bad link")
	// ErrDuplicateIP: two host slots share an address.
	ErrDuplicateIP = errors.New("config: duplicate IP")
	// ErrUnreachable: a switch has no path to the first one.
	ErrUnreachable = errors.New("config: unreachable switch")
	// ErrBadAggregate: a malformed aggregate route, or a host address no
	// aggregate of a hierarchical topology covers.
	ErrBadAggregate = errors.New("config: bad aggregate")
	// ErrBadChoice: Choices that do not fit the system.
	ErrBadChoice = errors.New("config: bad choice")
)

// Validate checks the system for everything netsim.Topology.Build would
// panic on or mis-wire: names, switch indices, links, addresses,
// aggregates and connectivity.
func (s *System) Validate() error {
	t := s.topo()
	ns := len(t.Switches)
	if ns == 0 {
		return fmt.Errorf("%w: the network has no switches", ErrUnknownSwitch)
	}
	inRange := func(i int) bool { return i >= 0 && i < ns }
	switches := make(map[string]bool, ns)
	for _, sw := range t.Switches {
		if sw.Name == "" {
			return fmt.Errorf("%w: switch with empty name", ErrName)
		}
		if switches[sw.Name] {
			return fmt.Errorf("%w: duplicate switch %q", ErrName, sw.Name)
		}
		switches[sw.Name] = true
	}
	hosts := make(map[string]bool, len(t.Hosts))
	ips := make(map[proto.IP]string, len(t.Hosts))
	for _, h := range t.Hosts {
		switch {
		case h.Name == "":
			return fmt.Errorf("%w: host with empty name", ErrName)
		case hosts[h.Name]:
			return fmt.Errorf("%w: duplicate host %q", ErrName, h.Name)
		case !inRange(h.Switch):
			return fmt.Errorf("%w: host %q attaches to unknown switch %d", ErrUnknownSwitch, h.Name, h.Switch)
		case h.Rate <= 0:
			return fmt.Errorf("%w: host %q has non-positive link rate", ErrBadLink, h.Name)
		case h.Delay <= 0:
			return fmt.Errorf("%w: host %q has non-positive link delay", ErrBadLink, h.Name)
		}
		if other, dup := ips[h.IP]; dup {
			return fmt.Errorf("%w: hosts %q and %q share IP %v", ErrDuplicateIP, other, h.Name, h.IP)
		}
		hosts[h.Name] = true
		ips[h.IP] = h.Name
	}
	adj := make([][]int, ns)
	for i, l := range t.Links {
		switch {
		case !inRange(l.A) || !inRange(l.B):
			return fmt.Errorf("%w: link %d references unknown switch", ErrUnknownSwitch, i)
		case l.A == l.B:
			return fmt.Errorf("%w: link %d is a self loop on %q", ErrBadLink, i, t.Switches[l.A].Name)
		case l.Rate <= 0 || l.Delay <= 0:
			return fmt.Errorf("%w: link %d has non-positive rate or delay", ErrBadLink, i)
		}
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	if err := validateAggregates(t, inRange); err != nil {
		return err
	}
	for slot := range s.Hosts {
		if slot < 0 || slot >= len(t.Hosts) {
			return fmt.Errorf("%w: host configuration for slot %d of %d", ErrUnknownSwitch, slot, len(t.Hosts))
		}
	}
	for sw := range s.Dataplanes {
		if !inRange(sw) {
			return fmt.Errorf("%w: dataplane on switch %d", ErrUnknownSwitch, sw)
		}
	}
	// Connectivity: every switch reachable from the first, by an
	// index-cursor BFS.
	if ns > 1 {
		seen := make([]bool, ns)
		seen[0] = true
		queue := []int{0}
		for head := 0; head < len(queue); head++ {
			for _, v := range adj[queue[head]] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		for i, ok := range seen {
			if !ok {
				return fmt.Errorf("%w: switch %q unreachable from %q", ErrUnreachable,
					t.Switches[i].Name, t.Switches[0].Name)
			}
		}
	}
	return nil
}

// validateAggregates checks a topology's aggregate routes and, when there
// are any, that every host address lies inside one of them.
func validateAggregates(t *netsim.Topology, inRange func(int) bool) error {
	for _, p := range t.Prefixes {
		if p.Prefix.Bits > 32 || len(p.Switches) == 0 ||
			slices.ContainsFunc(p.Switches, func(i int) bool { return !inRange(i) }) ||
			slices.ContainsFunc(p.Scope, func(i int) bool { return !inRange(i) }) {
			return fmt.Errorf("%w: %v needs at most 32 bits and member and scope switches that exist",
				ErrBadAggregate, p.Prefix)
		}
	}
	if i := t.UncoveredHost(); i >= 0 {
		return fmt.Errorf("%w: host %q (%v) is in no aggregate", ErrBadAggregate, t.Hosts[i].Name, t.Hosts[i].IP)
	}
	return nil
}
