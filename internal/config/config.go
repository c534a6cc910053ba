// Package config implements SplitSim's system-configuration abstraction:
// a declarative description of the *simulated system* — hosts with their
// attributes and applications, switches, links — kept strictly separate
// from the choice of how to simulate it. The paper expresses this as a
// hierarchy of Python objects; here it is a hierarchy of Go values with
// the same roles, and ordinary Go (loops, functions, modules) serves as
// the meta-programming layer for assembling large configurations.
//
// A System is turned into a runnable simulation by an Instantiation
// (instantiate.go), which picks host-simulator fidelities, network
// partitioning, and wiring — and yields a regular orch.Simulation that the
// user can still modify by hand, exactly as the paper's instantiation
// emits a regular SimBricks configuration.
package config

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/sim"
)

// App is an application written once against core.Host; the
// instantiation calls it on whichever host tier it built — the code-reuse
// property that lets one workload definition serve every fidelity.
type App func(h core.Host)

// Host describes one end host of the simulated system.
type Host struct {
	Name string
	// IP is the host address; zero auto-assigns from the host index.
	IP proto.IP
	// Cores, MemoryMB and ClockGHz are the machine attributes the paper's
	// host objects carry. The detailed host model simulates one core (as
	// the paper's evaluations configure); the attributes are retained for
	// configuration fidelity and validation.
	Cores    int
	MemoryMB int
	ClockGHz float64
	// Switch names the attachment switch.
	Switch string
	// LinkRate and LinkDelay describe the host link.
	LinkRate  int64
	LinkDelay sim.Time
	// Apps run on the host at simulation start.
	Apps []App
	// Fidelity is the desired simulation detail for this host; the
	// instantiation may override it wholesale.
	Fidelity core.Fidelity
	// OscDriftPPM/OscOffset configure the host clock for detailed hosts.
	OscDriftPPM float64
	OscOffset   sim.Time
}

// Switch describes one switch.
type Switch struct {
	Name string
	// TC enables the PTP transparent clock.
	TC bool
	// Dataplane optionally installs a programmable dataplane.
	Dataplane netsim.Dataplane
}

// Link describes a switch-to-switch link.
type Link struct {
	A, B  string
	Rate  int64
	Delay sim.Time
}

// System is the complete description of a simulated system.
type System struct {
	Hosts    []*Host
	Switches []*Switch
	Links    []Link
}

// AddHost appends a host and returns it for further configuration.
func (s *System) AddHost(name, swName string, rate int64, delay sim.Time) *Host {
	h := &Host{
		Name: name, Switch: swName, LinkRate: rate, LinkDelay: delay,
		Cores: 1, MemoryMB: 1024, ClockGHz: 4,
	}
	s.Hosts = append(s.Hosts, h)
	return h
}

// AddSwitch appends a switch and returns it.
func (s *System) AddSwitch(name string) *Switch {
	sw := &Switch{Name: name}
	s.Switches = append(s.Switches, sw)
	return sw
}

// Connect appends a switch-to-switch link.
func (s *System) Connect(a, b string, rate int64, delay sim.Time) {
	s.Links = append(s.Links, Link{A: a, B: b, Rate: rate, Delay: delay})
}

// HostByName returns the named host, or nil.
func (s *System) HostByName(name string) *Host {
	for _, h := range s.Hosts {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// Validate checks the configuration for structural errors: duplicate
// names, dangling attachments, nonsensical rates or delays.
func (s *System) Validate() error {
	switches := make(map[string]bool, len(s.Switches))
	for _, sw := range s.Switches {
		if sw.Name == "" {
			return fmt.Errorf("config: switch with empty name")
		}
		if switches[sw.Name] {
			return fmt.Errorf("config: duplicate switch %q", sw.Name)
		}
		switches[sw.Name] = true
	}
	hosts := make(map[string]bool, len(s.Hosts))
	type ipOwner struct {
		name string
		auto bool
	}
	ips := make(map[proto.IP]ipOwner)
	for i, h := range s.Hosts {
		if h.Name == "" {
			return fmt.Errorf("config: host with empty name")
		}
		if hosts[h.Name] {
			return fmt.Errorf("config: duplicate host %q", h.Name)
		}
		hosts[h.Name] = true
		if !switches[h.Switch] {
			return fmt.Errorf("config: host %q attaches to unknown switch %q", h.Name, h.Switch)
		}
		if h.LinkRate <= 0 {
			return fmt.Errorf("config: host %q has non-positive link rate", h.Name)
		}
		if h.LinkDelay <= 0 {
			return fmt.Errorf("config: host %q has non-positive link delay", h.Name)
		}
		// Check the EFFECTIVE address: an unset IP auto-assigns from the host
		// index (autoIP), which can collide with an explicitly set one.
		ip, auto := h.IP, false
		if ip == 0 {
			ip, auto = proto.HostIP(uint32(i+1)), true
		}
		if other, dup := ips[ip]; dup {
			tag := func(a bool) string {
				if a {
					return " (auto-assigned)"
				}
				return ""
			}
			return fmt.Errorf("config: hosts %q%s and %q%s share IP %v",
				other.name, tag(other.auto), h.Name, tag(auto), ip)
		}
		ips[ip] = ipOwner{name: h.Name, auto: auto}
		if h.Cores <= 0 || h.MemoryMB <= 0 || h.ClockGHz <= 0 {
			return fmt.Errorf("config: host %q has invalid machine attributes", h.Name)
		}
	}
	for i, l := range s.Links {
		if !switches[l.A] || !switches[l.B] {
			return fmt.Errorf("config: link %d references unknown switch", i)
		}
		if l.A == l.B {
			return fmt.Errorf("config: link %d is a self loop on %q", i, l.A)
		}
		if l.Rate <= 0 || l.Delay <= 0 {
			return fmt.Errorf("config: link %d has invalid rate or delay", i)
		}
	}
	// Connectivity: every switch reachable from the first.
	if len(s.Switches) > 1 {
		adj := make(map[string][]string)
		for _, l := range s.Links {
			adj[l.A] = append(adj[l.A], l.B)
			adj[l.B] = append(adj[l.B], l.A)
		}
		seen := map[string]bool{s.Switches[0].Name: true}
		// Index-cursor BFS, the same idiom as netsim's route computation:
		// popping with queue = queue[1:] keeps the consumed prefix pinned in
		// the backing array while append keeps growing it past the consumed
		// slots, so large fabrics paid allocator churn just to validate.
		queue := []string{s.Switches[0].Name}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		for _, sw := range s.Switches {
			if !seen[sw.Name] {
				return fmt.Errorf("config: switch %q unreachable from %q", sw.Name, s.Switches[0].Name)
			}
		}
	}
	return nil
}

// autoIP returns the host's address, deriving one when unset.
func (s *System) autoIP(h *Host) proto.IP {
	if h.IP != 0 {
		return h.IP
	}
	for i, other := range s.Hosts {
		if other == h {
			return proto.HostIP(uint32(i + 1))
		}
	}
	panic("config: host not in system")
}
