package config_test

import (
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
		want   string
	}{
		{func(s *config.System) { s.AddSwitch("sw0") }, "duplicate switch"},
		{func(s *config.System) { s.AddHost("server", "sw0", sim.Gbps, sim.Microsecond) }, "duplicate host"},
		{func(s *config.System) { s.AddHost("x", "nope", sim.Gbps, sim.Microsecond) }, "unknown switch"},
		{func(s *config.System) { s.AddHost("x", "sw0", 0, sim.Microsecond) }, "link rate"},
		{func(s *config.System) { s.AddHost("x", "sw0", sim.Gbps, 0) }, "link delay"},
		{func(s *config.System) { s.Connect("sw0", "sw0", sim.Gbps, sim.Microsecond) }, "self loop"},
		{func(s *config.System) { s.Connect("sw0", "ghost", sim.Gbps, sim.Microsecond) }, "unknown switch"},
		{func(s *config.System) { s.AddSwitch("island") }, "unreachable"},
		{func(s *config.System) { s.Hosts[0].Cores = 0 }, "machine attributes"},
		{func(s *config.System) {
			s.Hosts[0].IP = proto.HostIP(9)
			s.Hosts[1].IP = proto.HostIP(9)
		}, "share IP"},
		// Host index 1 auto-assigns HostIP(2); an explicit HostIP(2) elsewhere
		// collides with it even though only one IP is set explicitly.
		{func(s *config.System) { s.Hosts[0].IP = proto.HostIP(2) }, "auto-assigned"},
		{func(s *config.System) { s.Hosts[2].IP = proto.HostIP(2) }, "auto-assigned"},
	}
	for _, c := range cases {
		s, _, _ := smallSystem()
		c.mutate(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("want error containing %q, got %v", c.want, err)
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
	if inst.Cores() != 1 {
		t.Fatalf("protocol-level cores = %d, want 1", inst.Cores())
	}
	inst.RunSequential(10 * sim.Millisecond)
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
	inst.RunSequential(10 * sim.Millisecond)

	// (b) the server detailed (mixed fidelity).
	s2, received2, mixedRtts := smallSystem()
	inst2, err := s2.Instantiate(config.Choices{
		Seed:             1,
		FidelityOverride: map[string]core.Fidelity{"server": core.Coarse},
	})
	if err != nil {
		t.Fatal(err)
	}
	if inst2.Cores() != 3 { // net + host + nic
		t.Fatalf("mixed cores = %d, want 3", inst2.Cores())
	}
	if inst2.Detailed["server"] == nil || inst2.NetHosts["cli0"] == nil {
		t.Fatal("host registries incomplete")
	}
	inst2.RunSequential(10 * sim.Millisecond)
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
		Seed:        1,
		PartitionOf: func(name string) int { return int(name[2] - '0') },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(inst3.Parts) != 2 {
		t.Fatalf("parts = %d, want 2", len(inst3.Parts))
	}
	inst3.RunSequential(10 * sim.Millisecond)
	if *received3 == 0 {
		t.Fatal("partitioned workload did not run")
	}
}

func TestPartitionedCoupledRun(t *testing.T) {
	s, received, _ := smallSystem()
	inst, err := s.Instantiate(config.Choices{
		Seed:        1,
		PartitionOf: func(name string) int { return int(name[2] - '0') },
		FidelityOverride: map[string]core.Fidelity{
			"server": core.Coarse,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.RunCoupled(10 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if *received == 0 {
		t.Fatal("coupled partitioned run carried no traffic")
	}
}

// TestPartPlacementMatchesSequential runs one mixed-fidelity partitioned
// system sequentially and under several partition-level placements,
// asserting bit-identical workload results — the config-layer face of the
// placement determinism property.
func TestPartPlacementMatchesSequential(t *testing.T) {
	const end = 10 * sim.Millisecond
	build := func() (*config.Instance, *int, *[]sim.Time) {
		s, received, rtts := smallSystem()
		inst, err := s.Instantiate(config.Choices{
			Seed:             1,
			PartitionOf:      func(name string) int { return int(name[2] - '0') },
			FidelityOverride: map[string]core.Fidelity{"server": core.Coarse},
		})
		if err != nil {
			t.Fatal(err)
		}
		return inst, received, rtts
	}

	refInst, refReceived, refRtts := build()
	refInst.RunSequential(end)
	if *refReceived == 0 {
		t.Fatal("reference run carried no traffic")
	}

	for _, tc := range []struct {
		name      string
		partGroup []int
		pair      bool
	}{
		{"split-parts", []int{0, 1}, false},
		{"split-parts-paired", []int{0, 1}, true},
		{"all-colocated", []int{0, 0}, true},
	} {
		inst, received, rtts := build()
		p, err := inst.PartPlacement(tc.name, tc.partGroup, tc.pair)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Sim.RunParallel(end, p); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if *received != *refReceived {
			t.Errorf("%s: received %d, sequential %d", tc.name, *received, *refReceived)
		}
		if len(*rtts) != len(*refRtts) {
			t.Fatalf("%s: %d rtts, sequential %d", tc.name, len(*rtts), len(*refRtts))
		}
		for i := range *rtts {
			if (*rtts)[i] != (*refRtts)[i] {
				t.Fatalf("%s: rtt %d = %v, sequential %v", tc.name, i, (*rtts)[i], (*refRtts)[i])
			}
		}
	}

	// Fully co-located with host/NIC pairing: one group, every channel a
	// zero-sync direct port.
	inst, _, _ := build()
	p, err := inst.PartPlacement("coloc", []int{0, 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := inst.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	if pl.NumGroups() != 1 {
		t.Fatalf("co-located plan has %d groups, want 1", pl.NumGroups())
	}
	for _, ch := range pl.Channels {
		if !ch.Intra {
			t.Errorf("co-located plan still couples channel %s", ch.Name)
		}
	}
}

func TestClockConfiguration(t *testing.T) {
	s, _, _ := smallSystem()
	s.HostByName("server").OscDriftPPM = 40
	s.HostByName("server").OscOffset = sim.Millisecond
	inst, err := s.Instantiate(config.Choices{
		Seed:             1,
		FidelityOverride: map[string]core.Fidelity{"server": core.Coarse},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := inst.Detailed["server"].Host
	if h.Clock.Osc.DriftPPM != 40 || h.Clock.Osc.Offset != sim.Millisecond {
		t.Fatal("oscillator configuration not applied")
	}
}

func TestHostByName(t *testing.T) {
	s, _, _ := smallSystem()
	if s.HostByName("server") == nil || s.HostByName("ghost") != nil {
		t.Fatal("HostByName broken")
	}
}
