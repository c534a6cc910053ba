// Package workload drives synthetic datacenter traffic over netsim hosts:
// open- or closed-loop or trace-replayed flow arrivals, heavy-tailed
// (bounded Pareto) flow sizes, and incast / all-to-all shuffle / uniform
// destination patterns, recording flow-completion times into bounded
// reservoir-sampled recorders.
//
// The engine is partition-safe by construction: every host owns its state
// (arrival process, RNG, counters, FCT reservoir) and mutates it only from
// events on that host's own timeline, with all cross-host interaction
// carried by simulated packets. Per-host RNG streams are keyed by host IP
// and the workload seed — not by instantiation order — so the same spec on
// the same fabric produces bit-identical traffic no matter how the fabric
// is partitioned. Reports are merged after the run.
package workload

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/stats"
)

// SizeDist draws flow sizes in bytes.
type SizeDist interface {
	Sample(r *sim.Rand) int
}

// Fixed is a constant flow size in bytes.
type Fixed int

// Sample implements SizeDist.
func (f Fixed) Sample(*sim.Rand) int { return int(f) }

// Pareto is the bounded Pareto distribution: Min·U^(-1/Alpha) clipped to
// Max. Alpha in (1, 2) gives the heavy tail measured in datacenter traces —
// most flows tiny, most bytes in elephants.
type Pareto struct {
	Min   int
	Alpha float64
	Max   int
}

// Sample implements SizeDist.
func (p Pareto) Sample(r *sim.Rand) int {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	s := float64(p.Min) * math.Pow(u, -1/p.Alpha)
	if p.Max > 0 && s > float64(p.Max) {
		return p.Max
	}
	return int(s)
}

// Arrival is the flow arrival process, per source host.
type Arrival interface {
	isArrival()
}

// Open is an open-loop Poisson process: each source starts FlowsPerSec
// flows per second (of virtual time) regardless of completions. The
// aggregate over n sources is Poisson with rate n·FlowsPerSec by
// superposition, which is what keeps the process partition-safe — no
// global coordinator.
type Open struct {
	FlowsPerSec float64
}

func (Open) isArrival() {}

// Closed is a closed loop: each source keeps Concurrency flows
// outstanding, starting the next one when a completion acknowledgment
// arrives.
type Closed struct {
	Concurrency int
}

func (Closed) isArrival() {}

// Pattern picks the destination for a source's flow'th flow among n
// participants, or -1 for a source that generates no traffic.
type Pattern interface {
	Dst(r *sim.Rand, src, flow, n int) int
}

// Uniform sends each flow to a uniformly random other participant.
type Uniform struct{}

// Dst implements Pattern.
func (Uniform) Dst(r *sim.Rand, src, _, n int) int {
	d := r.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// Incast converges every other participant's flows on participant Victim.
type Incast struct {
	Victim int
}

// Dst implements Pattern.
func (p Incast) Dst(_ *sim.Rand, src, _, _ int) int {
	if src == p.Victim {
		return -1
	}
	return p.Victim
}

// Shuffle is the all-to-all exchange of a MapReduce-style shuffle stage:
// source s's flow f goes to (s+1+f mod n-1) mod n, rotating through every
// other participant.
type Shuffle struct{}

// Dst implements Pattern.
func (Shuffle) Dst(_ *sim.Rand, src, flow, n int) int {
	return (src + 1 + flow%(n-1)) % n
}

// Spec configures one workload. Flows run as paced UDP datagrams of
// netsim.MSS payload bytes on port 9000 — no congestion control, cheap
// enough for 10⁵-host fabrics, and safe across partition boundaries.
type Spec struct {
	Pattern Pattern
	Sizes   SizeDist
	Arrival Arrival

	Seed uint64
}

// FCTSamples bounds each host's flow-completion-time reservoir.
const FCTSamples = 4096

const (
	// port is the UDP port flows run over.
	port = 9000
	// burst is how many packets a flow emits per pacing quantum; pacing
	// bounds frames in flight per flow.
	burst = 16
)

// Flow packet payload: flow ID, flow start time, and a marker byte —
// 0 = data, 1 = last data packet, 2 = completion ack.
const hdrLen = 4 + 8 + 1

const (
	markData = 0
	markLast = 1
	markAck  = 2
)

// Engine installs a workload on a set of hosts and collects its results.
type Engine struct {
	spec   Spec
	states []*hostState

	// traceIdx[i] lists the indices into the Trace's flow list sourced by
	// participant i, in replay order; nil unless Arrival is a *Trace.
	traceIdx [][]int32
}

// hostState is the per-host slice of the workload; only events on its own
// host touch it.
type hostState struct {
	eng *Engine
	h   *netsim.Host
	idx int
	rng *sim.Rand
	fct *stats.Latency // FCTs of flows *received* by this host

	flows     int // flows started (and pattern sequence number)
	completed int // flows fully received here
	acked     int // completions acknowledged back to this source
	bytesSent int64

	// Named-event handles (see Install): timer re-arms post these instead of
	// closures so pending workload timers serialize into checkpoints.
	nextH  int // open-loop arrival tick
	burstH int // UDP burst re-arm, args: {dst<<32|flowID, flowStart, remaining}
	traceH int // trace-replay cursor advance, args: {cursor}
}

// Install binds the workload onto hosts: every host becomes a receiver on
// the workload port, and every host whose pattern emits traffic becomes a
// source. Hosts may span multiple partition networks — all interaction is
// packets — but a network carries at most one engine. Call before the
// simulation starts; results come from Collect after it ends.
func Install(hosts []*netsim.Host, spec Spec) *Engine {
	if len(hosts) < 2 {
		panic("workload: need at least two hosts")
	}
	e := &Engine{spec: spec, states: make([]*hostState, len(hosts))}
	if tr, ok := spec.Arrival.(*Trace); ok {
		if err := tr.Validate(len(hosts)); err != nil {
			panic("workload: " + err.Error())
		}
		e.traceIdx = make([][]int32, len(hosts))
		for fi, f := range tr.Flows {
			e.traceIdx[f.Src] = append(e.traceIdx[f.Src], int32(fi))
		}
	}
	for i, h := range hosts {
		// Key the stream by address, not slot order: the same host draws
		// the same stream however the fabric is partitioned or the host
		// list is assembled.
		key := spec.Seed ^ uint64(h.IP())*0x9e3779b97f4a7c15
		st := &hostState{
			eng: e,
			h:   h,
			idx: i,
			rng: sim.NewRand(key),
			fct: stats.NewReservoir(FCTSamples, key^0xa5a5a5a5a5a5a5a5),
		}
		e.states[i] = st
		// Timer handlers are named per slot; registration order follows
		// host order, which is deterministic for an identical build.
		st.nextH = h.RegisterNamed(fmt.Sprintf("wl/%d/%d/next", port, i), st.nextArrival)
		st.burstH = h.RegisterNamed(fmt.Sprintf("wl/%d/%d/burst", port, i), st.burstFire)
		st.traceH = h.RegisterNamed(fmt.Sprintf("wl/%d/%d/trace", port, i), st.traceFire)
		h.BindUDP(port, st.receive)
		h.SetApp(netsim.AppFunc(func(*netsim.Host) { st.start() }))
	}
	return e
}

// start launches the host's arrival process at simulation start.
func (st *hostState) start() {
	switch a := st.eng.spec.Arrival.(type) {
	case Open:
		if a.FlowsPerSec <= 0 {
			panic("workload: Open.FlowsPerSec must be positive")
		}
		// Probe the pattern: a passive host (Dst < 0) runs no process.
		if st.dstPeek() < 0 {
			return
		}
		st.scheduleNext(a)
	case Closed:
		if a.Concurrency <= 0 {
			panic("workload: Closed.Concurrency must be positive")
		}
		if st.dstPeek() < 0 {
			return
		}
		for i := 0; i < a.Concurrency; i++ {
			st.startFlow()
		}
	case *Trace:
		list := st.eng.traceIdx[st.idx]
		if len(list) == 0 {
			return
		}
		// Simulation start is time 0, so the first flow's absolute start
		// time is also its delay from now.
		st.h.PostNamed(a.Flows[list[0]].Start, st.traceH, sim.NamedArgs{0})
	default:
		panic(fmt.Sprintf("workload: unknown arrival %T", st.eng.spec.Arrival))
	}
}

// dstPeek asks the pattern whether this host sources traffic at all,
// without consuming RNG state.
func (st *hostState) dstPeek() int {
	probe := *st.rng
	return st.eng.spec.Pattern.Dst(&probe, st.idx, 0, len(st.eng.states))
}

// scheduleNext arms the next open-loop arrival.
func (st *hostState) scheduleNext(a Open) {
	gap := sim.Time(st.rng.Exp(float64(sim.Second) / a.FlowsPerSec))
	st.h.PostNamed(gap, st.nextH, sim.NamedArgs{})
}

// nextArrival is the open-loop tick: start a flow, re-arm.
func (st *hostState) nextArrival(sim.NamedArgs) {
	a, ok := st.eng.spec.Arrival.(Open)
	if !ok || st.h.Now() >= st.h.End() {
		return
	}
	st.startFlow()
	st.scheduleNext(a)
}

// burstFire resumes a paced UDP flow from its re-arm event.
func (st *hostState) burstFire(args sim.NamedArgs) {
	st.sendBurst(proto.IP(args[0]>>32), uint32(args[0]), sim.Time(args[1]), int(args[2]))
}

// traceFire replays this host's next trace flow and re-arms for the one
// after. The cursor rides in the event args, so a pending replay position
// checkpoints with the scheduler's event section.
func (st *hostState) traceFire(args sim.NamedArgs) {
	tr := st.eng.spec.Arrival.(*Trace)
	list := st.eng.traceIdx[st.idx]
	cur := int(args[0])
	f := tr.Flows[list[cur]]
	st.launch(f.Dst, int(f.Bytes))
	if cur+1 < len(list) {
		d := tr.Flows[list[cur+1]].Start - st.h.Now()
		if d < 0 {
			d = 0
		}
		st.h.PostNamed(d, st.traceH, sim.NamedArgs{uint64(cur + 1)})
	}
}

// startFlow draws a destination and size and begins transmitting.
func (st *hostState) startFlow() {
	n := len(st.eng.states)
	dst := st.eng.spec.Pattern.Dst(st.rng, st.idx, st.flows, n)
	if dst < 0 || dst == st.idx {
		return
	}
	size := st.eng.spec.Sizes.Sample(st.rng)
	st.launch(dst, size)
}

// launch begins transmitting one flow of size bytes to participant dst —
// the common tail of pattern-drawn (startFlow) and trace-replayed
// (traceFire) flows.
func (st *hostState) launch(dst, size int) {
	if size < 1 {
		size = 1
	}
	flowID := uint32(st.idx)<<16 | uint32(st.flows&0xffff)
	st.flows++
	st.sendBurst(st.eng.states[dst].h.IP(), flowID, st.h.Now(), size)
}

// sendBurst transmits up to burst packets of the flow's remaining bytes,
// then re-arms itself after the burst's serialization time at the access
// link rate — bounding frames in flight per flow to one burst.
func (st *hostState) sendBurst(dst proto.IP, flowID uint32, flowStart sim.Time, remaining int) {
	var hdr [hdrLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], flowID)
	binary.BigEndian.PutUint64(hdr[4:12], uint64(flowStart))
	burstBytes := 0
	for i := 0; i < burst && remaining > 0; i++ {
		pay := netsim.MSS
		if pay > remaining {
			pay = remaining
		}
		remaining -= pay
		if remaining == 0 {
			hdr[12] = markLast
		} else {
			hdr[12] = markData
		}
		st.h.SendUDP(dst, port, port, hdr[:], pay)
		burstBytes += pay + hdrLen
		st.bytesSent += int64(pay)
	}
	if remaining > 0 {
		gap := sim.TransmitTime(burstBytes, st.h.Iface().Rate())
		st.h.PostNamed(gap, st.burstH, sim.NamedArgs{
			uint64(dst)<<32 | uint64(flowID), uint64(flowStart), uint64(remaining)})
	}
}

// receive handles both flow data (recording the FCT when the last packet
// lands and acknowledging to the source) and completion acks (closing the
// loop under Closed arrivals).
func (st *hostState) receive(src proto.IP, _ uint16, payload []byte, _ int) {
	if len(payload) < hdrLen {
		return
	}
	switch payload[12] {
	case markData:
	case markLast:
		start := sim.Time(binary.BigEndian.Uint64(payload[4:12]))
		st.fct.Add(st.h.Now() - start)
		st.completed++
		// Acknowledge so a closed-loop source can start its next flow.
		var ack [hdrLen]byte
		copy(ack[:12], payload[:12])
		ack[12] = markAck
		st.h.SendUDP(src, port, port, ack[:], 0)
	case markAck:
		st.acked++
		if _, ok := st.eng.spec.Arrival.(Closed); ok && st.h.Now() < st.h.End() {
			st.startFlow()
		}
	}
}

// Engine rides along in checkpoints as auxiliary state: per-host RNG
// streams, counters, and FCT reservoirs serialize, while the spec and host
// bindings are reproduced by the identical build. Pending workload timers
// are named events and travel in the scheduler's event section.
var _ core.AuxState = (*Engine)(nil)

// SnapshotState implements core.AuxState.
func (e *Engine) SnapshotState(enc *snap.Encoder) error {
	enc.U32(uint32(len(e.states)))
	for _, st := range e.states {
		enc.U64(uint64(st.h.IP())) // identity check on restore
		enc.U64(st.rng.State())
		enc.I64(int64(st.flows))
		enc.I64(int64(st.completed))
		enc.I64(int64(st.acked))
		enc.I64(st.bytesSent)
		st.fct.Snapshot(enc)
	}
	return nil
}

// RestoreState implements core.AuxState. The engine must be installed on
// the same host set, in the same order, as the one snapshotted.
func (e *Engine) RestoreState(dec *snap.Decoder) error {
	if got := int(dec.U32()); got != len(e.states) {
		return fmt.Errorf("%w: workload: snapshot has %d hosts, engine has %d",
			core.ErrNotCheckpointable, got, len(e.states))
	}
	for _, st := range e.states {
		if ip := proto.IP(dec.U64()); ip != st.h.IP() {
			return fmt.Errorf("%w: workload: host order mismatch (%v vs %v)",
				core.ErrNotCheckpointable, ip, st.h.IP())
		}
		st.rng.SetState(dec.U64())
		st.flows = int(dec.I64())
		st.completed = int(dec.I64())
		st.acked = int(dec.I64())
		st.bytesSent = dec.I64()
		if err := st.fct.Restore(dec); err != nil {
			return err
		}
	}
	return dec.Err()
}

// Report is the merged outcome of a workload run.
type Report struct {
	FlowsStarted   int
	FlowsCompleted int
	BytesSent      int64
	FCT            *stats.Latency
}

// Collect merges per-host results. Call after the simulation has run.
func (e *Engine) Collect() Report {
	r := Report{FCT: &stats.Latency{}}
	for _, st := range e.states {
		r.FlowsStarted += st.flows
		r.FlowsCompleted += st.completed
		r.BytesSent += st.bytesSent
		r.FCT.Merge(st.fct)
	}
	return r
}
