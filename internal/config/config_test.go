package config_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/hostsim"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Both host tiers offer the one app contract config.App is written against.
var (
	_ core.Host = (*hostsim.Host)(nil)
	_ core.Host = (*netsim.Host)(nil)
)

// smallSystem builds a 2-switch, 3-host system with a ping workload.
func smallSystem() (*config.System, *int, *[]sim.Time) {
	s := &config.System{}
	s.AddSwitch("sw0")
	s.AddSwitch("sw1")
	s.Connect("sw0", "sw1", 40*sim.Gbps, sim.Microsecond)

	received := new(int)
	rtts := new([]sim.Time)

	srv := s.AddHost("server", "sw1", 10*sim.Gbps, sim.Microsecond)
	srv.Apps = append(srv.Apps, func(h core.Host) {
		h.BindUDP(7, func(src proto.IP, sport uint16, p []byte, _ int) {
			*received++
			h.SendUDP(src, 7, sport, p, 0)
		})
	})

	for _, name := range []string{"cli0", "cli1"} {
		c := s.AddHost(name, "sw0", 10*sim.Gbps, sim.Microsecond)
		c.Apps = append(c.Apps, func(h core.Host) { pingLoop(h, rtts) })
	}
	return s, received, rtts
}

// pingLoop is tier-agnostic client logic: it runs on either host kind.
func pingLoop(h core.Host, rtts *[]sim.Time) {
	var sentAt sim.Time
	h.BindUDP(8000, func(proto.IP, uint16, []byte, int) {
		*rtts = append(*rtts, h.Now()-sentAt)
	})
	var tick func()
	tick = func() {
		sentAt = h.Now()
		h.SendUDP(proto.HostIP(1), 8000, 7, nil, 64)
		h.After(500*sim.Microsecond, tick)
	}
	tick()
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		mutate func(*config.System)
		kind   error
		want   string
	}{
		{func(s *config.System) { s.AddSwitch("sw0") }, config.ErrName, "duplicate switch"},
		{func(s *config.System) { s.AddSwitch("") }, config.ErrName, "empty name"},
		{func(s *config.System) { s.AddHost("server", "sw0", sim.Gbps, sim.Microsecond) }, config.ErrName, "duplicate host"},
		{func(s *config.System) { s.AddHost("x", "nope", sim.Gbps, sim.Microsecond) }, config.ErrUnknownSwitch, "unknown switch"},
		{func(s *config.System) { s.Topo.Hosts[0].Switch = 2 }, config.ErrUnknownSwitch, "unknown switch"},
		{func(s *config.System) { s.AddHost("x", "sw0", 0, sim.Microsecond) }, config.ErrBadLink, "link rate"},
		{func(s *config.System) { s.AddHost("x", "sw0", sim.Gbps, 0) }, config.ErrBadLink, "link delay"},
		{func(s *config.System) { s.Connect("sw0", "sw0", sim.Gbps, sim.Microsecond) }, config.ErrBadLink, "self loop"},
		{func(s *config.System) { s.Topo.Links[0].Delay = -1 }, config.ErrBadLink, "non-positive"},
		{func(s *config.System) { s.Connect("sw0", "ghost", sim.Gbps, sim.Microsecond) }, config.ErrUnknownSwitch, "unknown switch"},
		{func(s *config.System) { s.AddSwitch("island") }, config.ErrUnreachable, "unreachable"},
		{func(s *config.System) {
			s.Topo.Hosts[0].IP = proto.HostIP(9)
			s.Topo.Hosts[1].IP = proto.HostIP(9)
		}, config.ErrDuplicateIP, "share IP"},
		// Slot 1 got HostIP(2) from AddHost; an explicit HostIP(2) elsewhere
		// collides with it.
		{func(s *config.System) { s.Topo.Hosts[0].IP = proto.HostIP(2) }, config.ErrDuplicateIP, "share IP"},
		{func(s *config.System) { s.Host(7) }, config.ErrUnknownSwitch, "slot 7"},
		{func(s *config.System) { s.Dataplanes = map[int]netsim.Dataplane{-1: nil} }, config.ErrUnknownSwitch, "dataplane"},
		{func(s *config.System) {
			s.Topo.AddAggregate(proto.Prefix{Addr: proto.HostIP(0), Bits: 33}, []int{0}, nil)
		}, config.ErrBadAggregate, "32 bits"},
		{func(s *config.System) {
			s.Topo.AddAggregate(proto.Prefix{Addr: proto.HostIP(0), Bits: 24}, []int{5}, nil)
		}, config.ErrBadAggregate, "switches that exist"},
		{func(s *config.System) {
			s.Topo.AddAggregate(proto.Prefix{Addr: proto.IP(0xc0a80000), Bits: 16}, []int{0}, nil)
		}, config.ErrBadAggregate, "in no aggregate"},
	}
	for _, c := range cases {
		s, _, _ := smallSystem()
		c.mutate(s)
		err := s.Validate()
		if !errors.Is(err, c.kind) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("want %v containing %q, got %v", c.kind, c.want, err)
		}
		if _, ierr := s.Instantiate(config.Choices{Seed: 1}); !errors.Is(ierr, c.kind) {
			t.Errorf("Instantiate: want %v, got %v", c.kind, ierr)
		}
	}
}

func TestInstantiateRejectsBadChoices(t *testing.T) {
	for _, c := range []config.Choices{
		{Partition: []int{0}},
		{Partition: []int{0, -1}},
		{FidelityOverride: map[string]core.Fidelity{"lazy": core.Coarse}},
	} {
		s, _, _ := smallSystem()
		s.Topo.AddLazyHost("lazy", proto.HostIP(50), 0, sim.Gbps, sim.Microsecond)
		if _, err := s.Instantiate(c); !errors.Is(err, config.ErrBadChoice) {
			t.Errorf("%+v: want ErrBadChoice, got %v", c, err)
		}
	}
}

func TestValidateOK(t *testing.T) {
	s, _, _ := smallSystem()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInstantiateProtocolLevel(t *testing.T) {
	s, received, rtts := smallSystem()
	inst, err := s.Instantiate(config.Choices{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if inst.Sim.NumComponents() != 1 {
		t.Fatalf("protocol-level cores = %d, want 1", inst.Sim.NumComponents())
	}
	inst.Sim.RunSequential(10 * sim.Millisecond)
	if *received == 0 || len(*rtts) == 0 {
		t.Fatal("workload did not run")
	}
	// Protocol-level RTT: pure path latency.
	if (*rtts)[0] > 12*sim.Microsecond {
		t.Fatalf("protocol RTT %v unexpectedly high", (*rtts)[0])
	}
}

// TestSameSystemDifferentInstantiations is the paper's headline property:
// one system configuration, several simulation configurations.
func TestSameSystemDifferentInstantiations(t *testing.T) {
	// (a) everything protocol-level.
	s, _, protoRtts := smallSystem()
	inst, err := s.Instantiate(config.Choices{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst.Sim.RunSequential(10 * sim.Millisecond)

	// (b) the server detailed (mixed fidelity).
	s2, received2, mixedRtts := smallSystem()
	inst2, err := s2.Instantiate(config.Choices{
		Seed:             1,
		FidelityOverride: map[string]core.Fidelity{"server": core.Coarse},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst2.Sim.NumComponents() != 3 { // net + host + nic
		t.Fatalf("mixed cores = %d, want 3", inst2.Sim.NumComponents())
	}
	if inst2.Detailed["server"] == nil || inst2.NetHosts["cli0"] == nil {
		t.Fatal("host registries incomplete")
	}
	inst2.Sim.RunSequential(10 * sim.Millisecond)
	if *received2 == 0 {
		t.Fatal("mixed-fidelity workload did not run")
	}

	// The detailed server adds stack latency the protocol level misses.
	if (*mixedRtts)[0] <= (*protoRtts)[0] {
		t.Fatalf("mixed RTT %v should exceed protocol RTT %v",
			(*mixedRtts)[0], (*protoRtts)[0])
	}

	// (c) partitioned network: one partition per switch, still one system.
	s3, received3, _ := smallSystem()
	inst3, err := s3.Instantiate(config.Choices{
		Seed:      1,
		Partition: []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst3.Built.Parts) != 2 {
		t.Fatalf("parts = %d, want 2", len(inst3.Built.Parts))
	}
	inst3.Sim.RunSequential(10 * sim.Millisecond)
	if *received3 == 0 {
		t.Fatal("partitioned workload did not run")
	}
}

func TestPartitionedCoupledRun(t *testing.T) {
	s, received, _ := smallSystem()
	inst, err := s.Instantiate(config.Choices{
		Seed:      1,
		Partition: []int{0, 1},
		FidelityOverride: map[string]core.Fidelity{
			"server": core.Coarse,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Sim.RunCoupled(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if *received == 0 {
		t.Fatal("coupled partitioned run carried no traffic")
	}
}

func TestClockConfiguration(t *testing.T) {
	s, _, _ := smallSystem()
	s.Host(0).Osc = hostsim.Oscillator{DriftPPM: 40, Offset: sim.Millisecond, WanderPPM: 1, Phase: 2}
	inst, err := s.Instantiate(config.Choices{
		Seed:             1,
		FidelityOverride: map[string]core.Fidelity{"server": core.Coarse},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.Detailed["server"].Host.Clock.Osc; got != s.Host(0).Osc {
		t.Fatalf("oscillator %+v, want %+v", got, s.Host(0).Osc)
	}
}

// TestHostBySlot checks the per-slot configuration accessor: one entry per
// slot, created on first use, and AddHost's entry is its slot's.
func TestHostBySlot(t *testing.T) {
	s, _, _ := smallSystem()
	if s.Host(0) != s.Host(0) || s.Host(0) == s.Host(1) {
		t.Fatal("Host must return one configuration per slot")
	}
	if h := s.AddHost("extra", "sw0", sim.Gbps, sim.Microsecond); h != s.Host(len(s.Topo.Hosts)-1) {
		t.Fatal("AddHost's configuration is not its slot's")
	}
	if ip := s.Topo.Hosts[3].IP; ip != proto.HostIP(4) {
		t.Fatalf("AddHost assigned %v to slot 3, want %v", ip, proto.HostIP(4))
	}
}
