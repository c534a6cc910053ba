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
	"encoding/json"
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
	Name string `json:"name"` // supervisor label ("client", "site0", ...)
	proxy.Counters
}

// AdapterSample is one adapter's counter snapshot.
type AdapterSample struct {
	Label string `json:"ep"`   // endpoint label ("chan.a")
	Peer  string `json:"peer"` // peer simulator name
	link.Counters
}

// Sample is one periodic snapshot for one simulator component.
type Sample struct {
	Sim    string   `json:"sim"`
	WallNs uint64   `json:"wall"`
	Virt   sim.Time `json:"virt"`
	// Frames is the number of pooled frames live (taken from pools, not
	// yet released) across the runner's components at sample time — the
	// packet-path leak indicator.
	Frames uint64 `json:"frames"`
	// SpecActive reports that the runner executes optimistically
	// (orch.RunOptimistic); Spec then carries its speculation counters —
	// snapshots, rollbacks, GVT leaps, replayed deliveries, wasted nanos —
	// as of sample time.
	SpecActive bool              `json:"spec_active,omitempty"`
	Spec       link.SpecCounters `json:"spec"`
	Adapters   []AdapterSample   `json:"adapters,omitempty"`
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
// boundaries at once (a lookahead window or GVT leap longer than interval)
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

// logPrefix marks a profiler record inside a larger log; lines without it
// belong to something else and are skipped on parse.
const logPrefix = "splitsim-prof "

// logLine is one record of the profiler log: the prefix, then this object as
// JSON with exactly one field set.
type logLine struct {
	Sample    *Sample          `json:"sample,omitempty"`
	Transport *TransportSample `json:"transport,omitempty"`
}

// WriteTo emits the collected samples, then the transport snapshots, one
// record per line:
//
//	splitsim-prof {"sample":{"sim":"net","wall":1000,"virt":2000,"frames":0,"spec":{...},"adapters":[{"ep":"x.a","peer":"host","wait":3,...}]}}
//	splitsim-prof {"transport":{"name":"client","dials":1,...}}
func (c *Collector) WriteTo(w io.Writer) (int64, error) {
	var total int64
	emit := func(l logLine) error {
		b, err := json.Marshal(l)
		if err != nil {
			return err
		}
		n, err := fmt.Fprintf(w, "%s%s\n", logPrefix, b)
		total += int64(n)
		return err
	}
	for _, s := range c.Samples() {
		if err := emit(logLine{Sample: &s}); err != nil {
			return total, err
		}
	}
	for _, ts := range c.Transports() {
		if err := emit(logLine{Transport: &ts}); err != nil {
			return total, err
		}
	}
	return total, nil
}

// ParseLog reads the records WriteTo wrote back out of a log, skipping every
// line that does not carry the profiler prefix.
func ParseLog(r io.Reader) ([]Sample, []TransportSample, error) {
	var samples []Sample
	var transports []TransportSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		rec, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), logPrefix)
		if !ok {
			continue
		}
		var l logLine
		if err := json.Unmarshal([]byte(rec), &l); err != nil {
			return nil, nil, fmt.Errorf("profiler: bad record %q: %w", rec, err)
		}
		if l.Sample != nil {
			samples = append(samples, *l.Sample)
		}
		if l.Transport != nil {
			transports = append(transports, *l.Transport)
		}
	}
	return samples, transports, sc.Err()
}
