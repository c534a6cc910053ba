package netsim

import "repro/internal/proto"

// RouteOracle returns the map-and-lengths oracle (oracleRoute) loaded with
// sw's routes, for the benchmarks in package netsim_test.
func RouteOracle(sw *Switch) func(proto.IP) (int, bool) {
	sw.RouteEntries() // compiles: one rule per prefix, the last install
	o := newOracleRoute()
	for _, r := range sw.rules {
		outs := make([]int, r.n)
		for i := range outs {
			outs[i] = int(sw.cands[int(r.off)+i])
		}
		if r.bits == perIPBits {
			o.setRoute(r.addr, outs[0])
		} else {
			o.setPrefixRoute(proto.Prefix{Addr: r.addr, Bits: r.bits}, outs...)
		}
	}
	return o.route
}
