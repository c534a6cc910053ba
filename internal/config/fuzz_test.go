package config_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/sim"
)

// fuzzBytes reads a fuzz input one byte at a time, zero past its end.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// decodeSystem turns a fuzz input into a small system and its choices.
// Indices run one below and past their ranges, names and addresses
// collide, and rates and delays may be zero, so malformed systems of
// every kind Validate reports are a few bytes away from valid ones.
//
// Layout: switches, then per switch nothing; hosts, then per host name,
// IP, switch, rate, delay, fidelity and echo target; links, then per link
// A, B, rate, delay; partition flag, then per switch a partition; seed.
func decodeSystem(data []byte) (*config.System, config.Choices) {
	b := fuzzBytes(data)
	sys := &config.System{Topo: &netsim.Topology{}}
	ns := b.next() % 4
	for i := 0; i < ns; i++ {
		sys.AddSwitch(fmt.Sprintf("sw%d", i))
	}
	nh := b.next() % 5
	for i := 0; i < nh; i++ {
		name := fmt.Sprintf("h%d", b.next()%6)
		ip := proto.HostIP(uint32(b.next() % 6))
		sw := b.next()%(ns+2) - 1
		rate := int64(b.next()%3) * sim.Gbps
		delay := sim.Time(b.next()%3) * sim.Microsecond
		slot := sys.Topo.AddHost(name, ip, sw, rate, delay)
		h := sys.Host(slot)
		h.Fidelity = core.Fidelity(b.next() % 3)
		dst := proto.HostIP(uint32(b.next() % 6))
		h.Apps = append(h.Apps, func(h core.Host) {
			h.BindUDP(7, func(src proto.IP, sport uint16, p []byte, _ int) {
				h.SendUDP(src, 7, sport, p, 0)
			})
			h.SendUDP(dst, 7, 7, nil, 64)
		})
	}
	nl := b.next() % 5
	for i := 0; i < nl; i++ {
		a, z := b.next()%(ns+2)-1, b.next()%(ns+2)-1
		sys.Topo.AddLink(a, z, int64(b.next()%3)*sim.Gbps, sim.Time(b.next()%3)*sim.Microsecond)
	}
	var c config.Choices
	if b.next()%2 == 1 {
		c.Partition = make([]int, ns+b.next()%2)
		for i := range c.Partition {
			c.Partition[i] = b.next()%3 - 1
		}
	}
	c.Seed = uint64(b.next())
	return sys, c
}

// FuzzSystemInstantiate checks the configuration boundary: whatever the
// input, Validate and Instantiate return a typed error or a system that
// runs, never a panic, and Instantiate reports every error Validate does.
func FuzzSystemInstantiate(f *testing.F) {
	for _, seed := range [][]byte{
		// Valid: two switches, a host on each echoing the other, one link.
		{2, 2, 0, 1, 1, 1, 1, 0, 2, 1, 2, 2, 1, 1, 0, 1, 1, 1, 2, 1, 1, 0, 5},
		// Valid, the second host qemu, one partition per switch.
		{2, 2, 0, 1, 1, 1, 1, 0, 2, 1, 2, 2, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 0, 1, 2, 0},
		// Valid, one switch, a qemu and a gem5 host.
		{1, 2, 0, 1, 1, 1, 1, 1, 2, 1, 2, 1, 1, 1, 2, 1, 0, 0, 0},
		{0, 0, 0, 0}, // no switches
		{2, 1, 0, 1, 3, 1, 1, 0, 1, 1, 1, 2, 1, 1, 0, 0},             // host switch out of range
		{2, 1, 0, 1, 1, 1, 1, 0, 1, 1, 0, 2, 1, 1, 0, 0},             // link switch out of range
		{2, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0},             // self loop
		{1, 2, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 0},    // duplicate IP
		{1, 2, 0, 1, 1, 1, 1, 0, 2, 0, 2, 1, 1, 1, 0, 1, 0, 0, 0},    // duplicate host name
		{1, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0},                         // zero host rate
		{2, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 2, 0, 1, 0, 0},             // zero link rate
		{2, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 2, 1, 0, 0, 0},             // zero link delay
		{3, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 2, 1, 1, 0, 0},             // unreachable switch
		{2, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 0}, // 3 partition entries
		{2, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 2, 1, 1, 1, 0, 0, 1, 0},    // negative partition
	} {
		f.Add(seed)
	}
	kinds := []error{config.ErrName, config.ErrUnknownSwitch, config.ErrBadLink,
		config.ErrDuplicateIP, config.ErrUnreachable, config.ErrBadAggregate}
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, c := decodeSystem(data)
		verr := sys.Validate()
		inst, err := sys.Instantiate(c)
		switch {
		case verr != nil:
			kind := slices.IndexFunc(kinds, func(k error) bool { return errors.Is(verr, k) })
			if kind < 0 || !errors.Is(err, kinds[kind]) {
				t.Fatalf("Validate: %v; Instantiate: %v", verr, err)
			}
		case err != nil:
			if !errors.Is(err, config.ErrBadChoice) {
				t.Fatalf("Instantiate of a valid system: untyped error %v", err)
			}
		default:
			inst.Sim.RunSequential(100 * sim.Microsecond)
		}
	})
}
