package netsim

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/sim"
)

// oracleRoute is the routing table as switches kept it before rules were
// compiled: a per-IP map consulted first, then one map per prefix length,
// scanned longest first. The property tests hold the compiled table to it.
type oracleRoute struct {
	routes     map[proto.IP]int
	prefixes   map[uint8]map[proto.IP][]int32
	prefixLens []uint8
}

func newOracleRoute() *oracleRoute {
	return &oracleRoute{routes: map[proto.IP]int{}, prefixes: map[uint8]map[proto.IP][]int32{}}
}

func (o *oracleRoute) setRoute(ip proto.IP, out int) { o.routes[ip] = out }

func (o *oracleRoute) setPrefixRoute(p proto.Prefix, outs ...int) {
	cands := make([]int32, len(outs))
	for i, out := range outs {
		cands[i] = int32(out)
	}
	m := o.prefixes[p.Bits]
	if m == nil {
		m = map[proto.IP][]int32{}
		o.prefixes[p.Bits] = m
		at := len(o.prefixLens)
		for i, l := range o.prefixLens {
			if p.Bits > l {
				at = i
				break
			}
		}
		o.prefixLens = append(o.prefixLens, 0)
		copy(o.prefixLens[at+1:], o.prefixLens[at:])
		o.prefixLens[at] = p.Bits
	}
	m[p.Addr.Masked(p.Bits)] = cands
}

func (o *oracleRoute) route(ip proto.IP) (int, bool) {
	if out, ok := o.routes[ip]; ok {
		return out, true
	}
	for _, bits := range o.prefixLens {
		cands, ok := o.prefixes[bits][ip.Masked(bits)]
		if !ok {
			continue
		}
		if len(cands) == 0 {
			return 0, false // explicit blackhole
		}
		return int(cands[ecmpHash(ip)%uint64(len(cands))]), true
	}
	return 0, false
}

func (o *oracleRoute) entries() (perIP, prefix int) {
	for _, m := range o.prefixes {
		prefix += len(m)
	}
	return len(o.routes), prefix
}

// routeIfaces is the iface count of the switch route programs run on.
const routeIfaces = 6

// runRouteProgram applies a route program to a fresh switch and to the
// oracle and requires every lookup to agree. A program is a sequence of
// 6-byte ops [op, addr (4 bytes, big endian), arg]; op&7 selects
//
//	0, 1     SetRoute(addr, arg % routeIfaces)
//	2, 3, 4  SetPrefixRoute(addr/(arg%33)) with (op>>3)&3 candidates, the
//	         first op>>5 (mod routeIfaces), the rest following it
//	5        look addr up
//	6, 7     look up every rule's first and last address and their
//	         neighbours, 0 and 0xffffffff, and compare RouteEntries
//
// Lookups go through Switch.Route and through the flow cache, so installs
// interleaved with them exercise recompiles and cache invalidation. The
// whole table is checked once more at the end; the switch is returned.
func runRouteProgram(t testing.TB, prog []byte) *Switch {
	t.Helper()
	n := New("rt", 1)
	sw := n.AddSwitch("sw")
	for i := 0; i < routeIfaces; i++ {
		n.AddExternal(sw, fmt.Sprintf("x%d", i), sim.Gbps)
	}
	o := newOracleRoute()
	step := 0
	check := func(ip proto.IP) {
		t.Helper()
		want, wantOK := o.route(ip)
		if got, ok := sw.Route(ip); got != want || ok != wantOK {
			t.Fatalf("op %d: Route(%v) = %d, %v; oracle %d, %v", step, ip, got, ok, want, wantOK)
		}
		if got, ok := sw.lookup(ip); got != want || ok != wantOK {
			t.Fatalf("op %d: lookup(%v) = %d, %v; oracle %d, %v", step, ip, got, ok, want, wantOK)
		}
	}
	checkAll := func() {
		t.Helper()
		edges := func(first, last uint32) {
			for _, a := range [...]uint32{first - 1, first, last, last + 1} {
				check(proto.IP(a))
			}
		}
		for ip := range o.routes {
			edges(uint32(ip), uint32(ip))
		}
		for bits, m := range o.prefixes {
			for addr := range m {
				edges(uint32(addr), uint32(addr)|^(uint32(0xffffffff)<<(32-bits)))
			}
		}
		check(0)
		check(0xffffffff)
		gotIP, gotPfx := sw.RouteEntries()
		wantIP, wantPfx := o.entries()
		if gotIP != wantIP || gotPfx != wantPfx {
			t.Fatalf("op %d: RouteEntries = %d, %d; oracle %d, %d", step, gotIP, gotPfx, wantIP, wantPfx)
		}
	}
	for ; len(prog) >= 6; prog, step = prog[6:], step+1 {
		op, arg := prog[0], prog[5]
		addr := proto.IP(binary.BigEndian.Uint32(prog[1:5]))
		switch op & 7 {
		case 0, 1:
			out := int(arg) % routeIfaces
			sw.SetRoute(addr, out)
			o.setRoute(addr, out)
		case 2, 3, 4:
			p := proto.MakePrefix(addr, int(arg%33))
			outs := make([]int, (op>>3)&3)
			for i := range outs {
				outs[i] = (int(op>>5) + i) % routeIfaces
			}
			sw.SetPrefixRoute(p, outs...)
			o.setPrefixRoute(p, outs...)
		case 5:
			check(addr)
		default:
			checkAll()
		}
	}
	checkAll()
	return sw
}

// routeProgram generates a route program (see runRouteProgram) of n ops
// whose rules collide on purpose: addresses cluster in a few blocks —
// one straddling the top and bottom of the address space — and half of them
// reuse an earlier address or its neighbour, so prefixes nest and abut, /0
// covers everything, /32 aggregates land on per-IP routes, blackholes sit
// inside routed aggregates and per-IP routes inside blackholes, and the
// same prefix is installed again with other candidates.
func routeProgram(rng *rand.Rand, n int) []byte {
	bases := [...]uint32{0x0a000000, 0x0a000100, 0x0a010000, 0x0b000000, 0xffffffe0}
	lengths := [...]byte{0, 8, 16, 23, 24, 26, 28, 30, 31, 32, 32}
	var used []uint32
	addr := func() uint32 {
		if len(used) > 0 && rng.Intn(2) == 0 {
			return used[rng.Intn(len(used))] + uint32(rng.Intn(3)) - 1
		}
		a := bases[rng.Intn(len(bases))] + uint32(rng.Intn(64))
		used = append(used, a)
		return a
	}
	prog := make([]byte, 0, 6*n)
	for i := 0; i < n; i++ {
		var op, arg byte
		switch r := rng.Intn(20); {
		case r < 7:
			op, arg = 0, byte(rng.Intn(256))
		case r < 17:
			op = 2 | byte(rng.Intn(4))<<3 | byte(rng.Intn(8))<<5
			arg = lengths[rng.Intn(len(lengths))]
		case r < 19:
			op = 5
		default:
			op = 6
		}
		prog = append(prog, op)
		prog = binary.BigEndian.AppendUint32(prog, addr())
		prog = append(prog, arg)
	}
	return prog
}

// TestRouteMatchesOracle holds the compiled table to the map-and-lengths
// oracle over seeded random install sequences interleaved with lookups.
func TestRouteMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		runRouteProgram(t, routeProgram(rand.New(rand.NewSource(seed)), 150))
	}
}

// FuzzRouteTable asserts the same property for arbitrary programs.
func FuzzRouteTable(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(routeProgram(rand.New(rand.NewSource(seed)), 60))
	}
	ip := func(a uint32) []byte { return binary.BigEndian.AppendUint32(nil, a) }
	op := func(op byte, addr uint32, arg byte) []byte {
		return append(append([]byte{op}, ip(addr)...), arg)
	}
	cat := func(ops ...[]byte) []byte {
		var p []byte
		for _, o := range ops {
			p = append(p, o...)
		}
		return p
	}
	// A per-IP route and a /32 aggregate on one address, both orders.
	f.Add(cat(op(0, 0x0a000001, 1), op(2|1<<3|3<<5, 0x0a000001, 32), op(5, 0x0a000001, 0)))
	f.Add(cat(op(2|1<<3|3<<5, 0x0a000001, 32), op(0, 0x0a000001, 1), op(5, 0x0a000001, 0)))
	// A blackhole inside a routed /8 with a per-IP route inside it.
	f.Add(cat(op(2|2<<3, 0x0a000000, 8), op(2, 0x0a0a0000, 16), op(0, 0x0a0a0005, 4), op(6, 0, 0)))
	// The same /24 installed twice; /0 under everything.
	f.Add(cat(op(2|1<<3, 0, 0), op(2|1<<3|1<<5, 0x0a000000, 24), op(2|2<<3|4<<5, 0x0a000000, 24), op(6, 0, 0)))
	f.Fuzz(func(t *testing.T, prog []byte) {
		runRouteProgram(t, prog)
	})
}

// TestRoutePrefixOver32BitsPanics: a Prefix literal longer than 32 bits used
// to mask to 0.0.0.0 and install as a catch-all that outranked every real
// aggregate.
func TestRoutePrefixOver32BitsPanics(t *testing.T) {
	n := New("rt", 1)
	sw := n.AddSwitch("sw")
	n.AddExternal(sw, "a", sim.Gbps)
	n.AddExternal(sw, "b", sim.Gbps)
	sw.SetPrefixRoute(proto.MakePrefix(proto.IP(0x0b000000), 8), 0)
	defer func() {
		if recover() == nil {
			out, ok := sw.Route(proto.IP(0x0b000005))
			t.Fatalf("SetPrefixRoute accepted a 40-bit prefix; 11.0.0.5 now routes to %d, %v", out, ok)
		}
	}()
	sw.SetPrefixRoute(proto.Prefix{Addr: proto.IP(0x0a000001), Bits: 40}, 1)
}

// TestRouteCompiledAtAttach: a route installed after the build
// (MaterializeSlot's direct route) leaves the table dirty, and Attach
// compiles it, so no lookup compiles on a runner goroutine — the flow
// tier's replicas look up every partition's switches concurrently.
func TestRouteCompiledAtAttach(t *testing.T) {
	topo := &Topology{}
	sw := topo.AddSwitch("sw")
	slot := topo.AddLazyHost("h", proto.HostIP(1), sw, sim.Gbps, sim.Microsecond)
	b := topo.Build("net", 1, nil, nil)
	b.MaterializeSlot(slot)
	if !b.Switches[sw].dirty {
		t.Fatal("MaterializeSlot's route did not mark the table dirty")
	}
	b.Parts[0].Attach(core.Env{Sched: sim.NewScheduler(0), Src: 1})
	if b.Switches[sw].dirty {
		t.Fatal("Attach left the route table uncompiled")
	}
	if out, ok := b.Switches[sw].Route(proto.HostIP(1)); !ok || out != 0 {
		t.Fatalf("Route(h) = %d, %v; want 0, true", out, ok)
	}
}

// TestRouteZeroAlloc: a lookup in a compiled table and a forwarding
// decision that misses the flow cache allocate nothing.
func TestRouteZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	rng := rand.New(rand.NewSource(1))
	sw := runRouteProgram(t, routeProgram(rng, 150))
	ips := make([]proto.IP, 1024)
	for k := range ips {
		ips[k] = proto.IP(0x0a000000 + rng.Intn(1<<17))
	}
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		sw.Route(ips[i%len(ips)])
		i++
	}); avg != 0 {
		t.Fatalf("Route allocates %.2f/lookup, want 0", avg)
	}

	// Three destinations that share a flow-cache slot: sending to them in
	// turn misses on every packet. Seventeen hosts over eight slots put at
	// least three in one.
	hs, s := benchFabric(18)
	for _, h := range hs {
		h.BindUDP(9, func(proto.IP, uint16, []byte, int) {})
	}
	fab := hs[0].net.switches[0]
	var bySlot [flowCacheSize][]proto.IP
	var dsts []proto.IP
	for _, h := range hs[1:] {
		k := flowSlot(h.IP())
		if bySlot[k] = append(bySlot[k], h.IP()); len(bySlot[k]) == 3 {
			dsts = bySlot[k]
			break
		}
	}
	op := func() {
		hs[0].SendUDP(dsts[i%len(dsts)], 1, 9, nil, 1400)
		s.Run()
		i++
	}
	for k := 0; k < 64; k++ {
		op()
	}
	hits := fab.FlowCacheHits
	if avg := testing.AllocsPerRun(300, op); avg != 0 {
		t.Fatalf("forwarding through a flow-cache miss allocates %.2f/packet, want 0", avg)
	}
	if fab.FlowCacheHits != hits {
		t.Fatalf("%d flow-cache hits; every packet should have missed", fab.FlowCacheHits-hits)
	}
}

// TestRouteComputeMatchesBuild holds ComputeRoutes to its doc: on a flat
// fabric it must answer every switch's lookup for every host and
// external-port address exactly as the routes Topology.Build installed.
func TestRouteComputeMatchesBuild(t *testing.T) {
	for _, tc := range []struct {
		k     int
		every int // every every-th host slot becomes an external port (0: none)
	}{{4, 0}, {6, 0}, {4, 3}} {
		topo, _ := FatTree(tc.k, 10*sim.Gbps, 40*sim.Gbps, sim.Microsecond)
		for i := 0; tc.every > 0 && i < len(topo.Hosts); i += tc.every {
			topo.Hosts[i].External = true
		}
		n := topo.Build("ft", 1, nil, nil).Parts[0]
		var want []int
		for _, sw := range n.Switches() {
			for _, th := range topo.Hosts {
				out, ok := sw.Route(th.IP)
				if !ok {
					t.Fatalf("FatTree(%d): Build left %s without a route to %v", tc.k, sw.name, th.IP)
				}
				want = append(want, out)
			}
		}
		// Drop Build's installs so every answer below is ComputeRoutes' own.
		for _, sw := range n.Switches() {
			sw.rules, sw.cands = nil, nil
		}
		n.ComputeRoutes()
		i := 0
		for _, sw := range n.Switches() {
			for _, th := range topo.Hosts {
				if out, ok := sw.Route(th.IP); !ok || out != want[i] {
					t.Fatalf("FatTree(%d), external every %d: %s -> %v: ComputeRoutes gives %d,%v; Build gave %d",
						tc.k, tc.every, sw.name, th.IP, out, ok, want[i])
				}
				i++
			}
		}
	}
}
