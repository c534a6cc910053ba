package config

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hostsim"
	"repro/internal/sim"
)

// TestDetailedHostSeeds checks that a declared seed reaches its detailed
// host for any value, zero included, and that hosts declaring none get
// seeds no other detailed host of the instance has — even when the seed
// derived for a slot is one another host declared.
func TestDetailedHostSeeds(t *testing.T) {
	for _, c := range []Choices{{Seed: 0}, {Seed: 7}, {Seed: 42 ^ 3}} {
		sys := &System{}
		sys.AddSwitch("sw")
		for i := 0; i < 4; i++ {
			sys.AddHost(fmt.Sprintf("h%d", i), "sw", sim.Gbps, sim.Microsecond).Fidelity = core.Coarse
		}
		sys.Host(0).SetSeed(0)
		sys.Host(1).SetSeed(42) // slot 2 derives 42 under Seed 42^3
		inst, err := sys.Instantiate(c)
		if err != nil {
			t.Fatal(err)
		}
		seeds := sys.seeds(c.Seed, inst.Built.Topo())
		if len(seeds) != 4 || seeds[0] != 0 || seeds[1] != 42 {
			t.Fatalf("seed %d: seeds %v, want slot 0 → 0 and slot 1 → 42", c.Seed, seeds)
		}
		if seeds[2] == seeds[3] || seeds[2] == 0 || seeds[2] == 42 || seeds[3] == 0 || seeds[3] == 42 {
			t.Errorf("seed %d: undeclared hosts got %d and %d, shared with another host", c.Seed, seeds[2], seeds[3])
		}
		for slot, th := range inst.Built.Topo().Hosts {
			ref := hostsim.New(th.Name, th.IP, hostsim.QemuParams(), seeds[slot])
			if got, want := inst.Detailed[th.Name].Host.Rand().Uint64(), ref.Rand().Uint64(); got != want {
				t.Errorf("seed %d: %s draws %d, a host seeded %d draws %d", c.Seed, th.Name, got, seeds[slot], want)
			}
		}
	}
}
