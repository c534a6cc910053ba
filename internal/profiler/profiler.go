// Package profiler implements SplitSim's lightweight synchronization and
// communication profiler. Each channel adapter already counts cycles
// blocked waiting for synchronization, messages sent, and messages
// processed (package link); the profiler periodically samples those
// counters together with wall-clock and virtual time, and a post-processing
// pass turns the samples into the paper's two outputs:
//
//   - global simulation speed and per-simulator efficiency, and
//   - the wait-time-profile graph (WTPG), which annotates "who waits for
//     whom" and colors probable bottlenecks red.
//
// The same post-processing also accepts modeled profiles produced by the
// decomposition performance model (package decomp), so WTPGs can be
// generated deterministically from sequential experiment runs.
package profiler

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/proxy"
	"repro/internal/sim"
)

// TransportSample is one scale-out proxy transport's counter snapshot —
// the wall-clock layer underneath the virtual-time adapters. Distributed
// runs attach one per supervisor so a profile shows both what the
// simulation waited for (adapter counters) and what the wire did to cause
// it (reconnects, retransmits, backoff time).
type TransportSample struct {
	Name string // supervisor label ("client", "site0", ...)
	proxy.Counters
}

// AdapterSample is one adapter's counter snapshot.
type AdapterSample struct {
	Label string // endpoint label ("chan.a")
	Peer  string // peer simulator name
	link.Counters
}

// Sample is one periodic snapshot for one simulator component.
type Sample struct {
	Sim    string
	WallNs uint64
	Virt   sim.Time
	// Frames is the number of pooled frames live (taken from pools, not
	// yet released) across the runner's components at sample time — the
	// packet-path leak indicator.
	Frames uint64
	// SpecActive reports that the runner executes optimistically
	// (orch.RunOptimistic); Spec then carries its speculation counters —
	// snapshots, rollbacks, GVT leaps, replayed deliveries, wasted nanos —
	// as of sample time.
	SpecActive bool
	Spec       link.SpecCounters
	Adapters   []AdapterSample
}

// Collector gathers samples from a coupled run.
type Collector struct {
	mu         sync.Mutex
	samples    []Sample
	transports []TransportSample
	start      time.Time
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{start: time.Now()} }

// Attach samples every runner in the group once per interval of virtual
// time. Call from orch.Simulation.PreRun, i.e. after wiring and before
// execution. Sampling rides the runner's OnAdvance hook — one sample when
// the committed clock crosses the next interval boundary, stamped with the
// committed time, never a speculative one — so profiling posts no scheduler
// events: event counts, snapshots, rollbacks and checkpoints are the same
// as in an unprofiled run. A runner whose committed clock steps over several
// boundaries at once (a batched window or GVT leap longer than interval)
// yields one sample for the step. Samples are appended from each runner's
// own goroutine, so in a coupled run many runners sample concurrently; a
// small critical section guards the shared slice.
func (c *Collector) Attach(g *link.Group, interval sim.Time) {
	for _, r := range g.Runners {
		next := r.Scheduler().Now() + interval
		r.OnAdvance = func(committed sim.Time) {
			if committed < next {
				return
			}
			next += (committed-next)/interval*interval + interval
			c.sample(r, committed)
		}
	}
}

// sample records r's counters at virtual time virt; call from r's own
// goroutine.
func (c *Collector) sample(r *link.Runner, virt sim.Time) {
	s := Sample{Sim: r.Name(), WallNs: uint64(time.Since(c.start).Nanoseconds()), Virt: virt}
	for _, comp := range r.Components() {
		if fp, ok := comp.(core.FramePooler); ok {
			s.Frames += fp.FrameStats().Live
		}
	}
	s.Spec, _, s.SpecActive = r.SpecStats()
	for _, e := range r.Endpoints() {
		s.Adapters = append(s.Adapters, AdapterSample{
			Label:    e.Label(),
			Peer:     e.PeerRunnerName(),
			Counters: e.Stats,
		})
	}
	c.Add(s)
}

// Samples returns everything collected so far. Call after the run ends.
func (c *Collector) Samples() []Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Sample(nil), c.samples...)
}

// Add appends a sample directly (used by tests and modeled profiles). It is
// safe to call concurrently with Attach-driven sampling.
func (c *Collector) Add(s Sample) {
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

// AddTransport appends a transport counter snapshot; distributed harnesses
// call it once per supervisor after the run ends.
func (c *Collector) AddTransport(ts TransportSample) {
	c.mu.Lock()
	c.transports = append(c.transports, ts)
	c.mu.Unlock()
}

// Transports returns the attached transport snapshots.
func (c *Collector) Transports() []TransportSample {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]TransportSample(nil), c.transports...)
}

// WriteTo emits the samples as text log lines, one adapter per line:
//
//	splitsim-prof sim=<name> wall=<ns> virt=<ps> frames=<n>
//	  [spec=<snaps>:<rolls>:<leaps>:<replays>:<wastedns>] ep=<label>
//	  peer=<sim> wait=<ns> proc=<ns> depth=<n> txd=<n> txs=<n> rxd=<n> rxs=<n>
//
// The spec= field appears only for optimistically executed runners.
func (c *Collector) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for _, s := range c.Samples() {
		spec := ""
		if s.SpecActive {
			spec = fmt.Sprintf(" spec=%d:%d:%d:%d:%d", s.Spec.Snapshots, s.Spec.Rollbacks,
				s.Spec.Leaps, s.Spec.Replayed, s.Spec.WastedNanos)
		}
		if len(s.Adapters) == 0 {
			n, err := fmt.Fprintf(w, "splitsim-prof sim=%s wall=%d virt=%d frames=%d%s\n",
				s.Sim, s.WallNs, int64(s.Virt), s.Frames, spec)
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
		for _, a := range s.Adapters {
			n, err := fmt.Fprintf(w,
				"splitsim-prof sim=%s wall=%d virt=%d frames=%d%s ep=%s peer=%s wait=%d proc=%d depth=%d txd=%d txs=%d rxd=%d rxs=%d\n",
				s.Sim, s.WallNs, int64(s.Virt), s.Frames, spec, a.Label, a.Peer,
				a.WaitNanos, a.ProcNanos, a.PeakDepth, a.TxData, a.TxSync, a.RxData, a.RxSync)
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
	}
	for _, ts := range c.Transports() {
		n, err := fmt.Fprintf(w,
			"splitsim-prof transport=%s dials=%d dialfail=%d reconn=%d ftx=%d frx=%d btx=%d brx=%d hbtx=%d hbrx=%d acktx=%d ackrx=%d retx=%d corrupt=%d backoff=%d\n",
			ts.Name, ts.Dials, ts.DialFailures, ts.Reconnects,
			ts.FramesTx, ts.FramesRx, ts.BytesTx, ts.BytesRx,
			ts.HeartbeatsTx, ts.HeartbeatsRx, ts.AcksTx, ts.AcksRx,
			ts.Retransmits, ts.Corrupt, ts.BackoffNanos)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ParseLog reads log lines written by WriteTo, reassembling samples (lines
// sharing sim+wall+virt merge into one sample). Transport lines are
// skipped; use ParseLogFull to recover them too.
func ParseLog(r io.Reader) ([]Sample, error) {
	samples, _, err := ParseLogFull(r)
	return samples, err
}

// ParseLogFull reads log lines written by WriteTo, reassembling both the
// per-simulator samples and the transport counter lines.
func ParseLogFull(r io.Reader) ([]Sample, []TransportSample, error) {
	var out []Sample
	var transports []TransportSample
	idx := make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "splitsim-prof ") {
			continue
		}
		fields := strings.Fields(line)[1:]
		kv := make(map[string]string, len(fields))
		for _, f := range fields {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return nil, nil, fmt.Errorf("profiler: bad field %q", f)
			}
			kv[k] = v
		}
		if name, isTransport := kv["transport"]; isTransport {
			ts := TransportSample{Name: name}
			for _, f := range []struct {
				name string
				dst  *uint64
			}{
				{"dials", &ts.Dials}, {"dialfail", &ts.DialFailures},
				{"reconn", &ts.Reconnects},
				{"ftx", &ts.FramesTx}, {"frx", &ts.FramesRx},
				{"btx", &ts.BytesTx}, {"brx", &ts.BytesRx},
				{"hbtx", &ts.HeartbeatsTx}, {"hbrx", &ts.HeartbeatsRx},
				{"acktx", &ts.AcksTx}, {"ackrx", &ts.AcksRx},
				{"retx", &ts.Retransmits}, {"corrupt", &ts.Corrupt},
				{"backoff", &ts.BackoffNanos},
			} {
				if _, err := fmt.Sscanf(kv[f.name], "%d", f.dst); err != nil {
					return nil, nil, fmt.Errorf("profiler: bad %s %q", f.name, kv[f.name])
				}
			}
			transports = append(transports, ts)
			continue
		}
		var s Sample
		s.Sim = kv["sim"]
		if _, err := fmt.Sscanf(kv["wall"], "%d", &s.WallNs); err != nil {
			return nil, nil, fmt.Errorf("profiler: bad wall %q", kv["wall"])
		}
		var virt int64
		if _, err := fmt.Sscanf(kv["virt"], "%d", &virt); err != nil {
			return nil, nil, fmt.Errorf("profiler: bad virt %q", kv["virt"])
		}
		s.Virt = sim.Time(virt)
		// frames= was added after the first log format; logs written before
		// it parse with a zero frame count.
		if v, hasFrames := kv["frames"]; hasFrames {
			if _, err := fmt.Sscanf(v, "%d", &s.Frames); err != nil {
				return nil, nil, fmt.Errorf("profiler: bad frames %q", v)
			}
		}
		// spec= appears only on lines from optimistically executed runners;
		// its absence (conservative runs, older logs) parses as inactive.
		if v, hasSpec := kv["spec"]; hasSpec {
			if _, err := fmt.Sscanf(v, "%d:%d:%d:%d:%d", &s.Spec.Snapshots, &s.Spec.Rollbacks,
				&s.Spec.Leaps, &s.Spec.Replayed, &s.Spec.WastedNanos); err != nil {
				return nil, nil, fmt.Errorf("profiler: bad spec %q", v)
			}
			s.SpecActive = true
		}
		key := fmt.Sprintf("%s/%d/%d", s.Sim, s.WallNs, virt)
		i, ok := idx[key]
		if !ok {
			i = len(out)
			idx[key] = i
			out = append(out, s)
		}
		out[i].Frames = s.Frames
		out[i].SpecActive = s.SpecActive
		out[i].Spec = s.Spec
		if ep, hasEp := kv["ep"]; hasEp {
			a := AdapterSample{Label: ep, Peer: kv["peer"]}
			parse := func(name string, dst *uint64) error {
				if _, err := fmt.Sscanf(kv[name], "%d", dst); err != nil {
					return fmt.Errorf("profiler: bad %s %q", name, kv[name])
				}
				return nil
			}
			for _, f := range []struct {
				name string
				dst  *uint64
			}{
				{"wait", &a.WaitNanos}, {"proc", &a.ProcNanos},
				{"txd", &a.TxData}, {"txs", &a.TxSync},
				{"rxd", &a.RxData}, {"rxs", &a.RxSync},
			} {
				if err := parse(f.name, f.dst); err != nil {
					return nil, nil, err
				}
			}
			// depth= was added after the first log format; logs written
			// before it parse with a zero peak depth.
			if _, hasDepth := kv["depth"]; hasDepth {
				if err := parse("depth", &a.PeakDepth); err != nil {
					return nil, nil, err
				}
			}
			out[i].Adapters = append(out[i].Adapters, a)
		}
	}
	return out, transports, sc.Err()
}
