package main

import (
	"bufio"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// procs is the parallelism every child runs with: the box has two cores,
// and a placed workload never builds more runner groups than that.
const procs = 2

// A build shorter than setupMinTotal is repeated until that much set-up time
// has been sampled (at most setupMaxReps builds). The first builds of a fresh
// process mostly measure first touches of new heap, so setup_s is the median
// of the second half of the builds. The last build is the one that runs.
const (
	setupMinTotal = 100 * time.Millisecond
	setupMaxReps  = 1000
)

// report is what one child process prints: one workload, built and run once.
type report struct {
	Workload string
	Seed     uint64

	SimS      float64 // simulated seconds the run phase covered
	RunWallS  float64
	RunCPUS   float64
	SetupS    float64
	PeakRSSMB float64
	MallocsK  float64

	Digest   string // fold of the simulated results
	Events   uint64
	Checks   int
	Failures []string `json:",omitempty"`

	Layer     map[string]float64 `json:",omitempty"`
	TracePath string             `json:",omitempty"`
}

// ctx is the measuring harness a workload function drives.
type ctx struct {
	seed   uint64
	scale  float64 // 1 except in the smoke test
	traced bool
	tr     *tracer
	rep    *report
	digest hash.Hash64
	mem0   runtime.MemStats // taken before the build that runs
}

// dur is a workload's simulated duration d, which only the smoke test
// scales: every child the harness spawns runs at scale 1.
func (c *ctx) dur(d sim.Time) sim.Time {
	d = sim.Time(float64(d) * c.scale)
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	return d
}

func (c *ctx) span(name string, fn func()) float64 { return c.tr.do(name, fn) }

func (c *ctx) check(what string, ok bool) {
	c.rep.Checks++
	if !ok {
		c.rep.Failures = append(c.rep.Failures, what)
	}
}

// fold adds one simulated result to the workload's digest.
func (c *ctx) fold(label string, vals ...any) {
	fmt.Fprintf(c.digest, "%s=%v;", label, vals)
}

func (c *ctx) layer(name string, v float64) {
	if _, known := c.rep.Layer[name]; !known {
		panic("bench/e2e: layer metric " + name + " is not in the perLayer table")
	}
	c.rep.Layer[name] = v
}

// setup times everything before the run call.
func (c *ctx) setup(build func()) {
	var times []float64
	for total := 0.0; total < setupMinTotal.Seconds() && len(times) < setupMaxReps; {
		runtime.ReadMemStats(&c.mem0)
		d := c.span("setup", build)
		times = append(times, d)
		total += d
	}
	c.rep.SetupS = median(times[len(times)/2:])
}

// run times the run phase: wall and process CPU over fn, mallocs since the
// start of the build that ran, and the process's peak RSS so far.
func (c *ctx) run(simT sim.Time, fn func() error) {
	var err error
	cpu0 := cpuSeconds()
	c.rep.RunWallS = c.span("run", func() { err = fn() })
	c.rep.RunCPUS = cpuSeconds() - cpu0
	c.rep.SimS = simT.Seconds()

	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.rep.MallocsK = float64(m.Mallocs-c.mem0.Mallocs) / 1e3
	c.rep.PeakRSSMB = peakRSSMB()
	c.check("run returned no error", err == nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench/e2e: run:", err)
	}

	c.layer("orch.run_s", c.rep.RunWallS)
	c.layer("runtime.gc_cycles", float64(m.NumGC-c.mem0.NumGC))
	c.layer("runtime.gc_pause_ms", float64(m.PauseTotalNs-c.mem0.PauseTotalNs)/1e6)
	c.layer("runtime.total_alloc_mb", float64(m.TotalAlloc-c.mem0.TotalAlloc)/(1<<20))
	c.layer("runtime.heap_end_mb", float64(m.HeapAlloc)/(1<<20))
}

// events records the run's scheduler event count and the per-event cost.
func (c *ctx) events(n uint64) {
	c.rep.Events = n
	c.layer("sim.events", float64(n))
	if n > 0 {
		c.layer("sim.ns_per_event", c.rep.RunWallS*1e9/float64(n))
	}
}

// schedFloor prices the scheduler alone: no-op named events through a bare
// sim.Scheduler holding depth pending events, each handler re-posting itself.
// The share of the workload's per-event cost this floor explains is what a
// scheduler optimisation can at most recover.
func (c *ctx) schedFloor(depth int) {
	const rounds = 200_000
	s := sim.NewScheduler(0)
	var h int32
	h = s.RegisterNamed("bench/noop", func(a sim.NamedArgs) {
		s.PostNamed(s.Now()+sim.Time(1+a[0]%997), 0, h, a)
	})
	for i := 0; i < depth; i++ {
		s.PostNamed(sim.Time(i%997), 0, h, sim.NamedArgs{uint64(i)})
	}
	wall := c.span("sim.sched_floor", func() {
		for i := 0; i < rounds; i++ {
			s.Step()
		}
	})
	floor := wall * 1e9 / rounds
	c.layer("sim.sched_floor_ns", floor)
	if per := c.rep.Layer["sim.ns_per_event"]; per > 0 {
		c.layer("sim.sched_share", floor/per)
	}
}

// refSpinMs times a fixed integer loop: the same instructions on every
// commit, so a change in its time is the box drifting, not the code.
func refSpinMs() float64 {
	var x uint64 = 88172645463325252
	start := time.Now()
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if x == 0 {
		panic("unreachable: xorshift reached zero")
	}
	return ms
}

// runChild builds and runs one workload in this process.
func runChild(w *workload, seed uint64, scale float64, traced bool, outDir string) *report {
	runtime.GOMAXPROCS(procs)
	runID := fmt.Sprintf("%s-seed%d-%d", w.name, seed, os.Getpid())
	rep := &report{Workload: w.name, Seed: seed, Layer: map[string]float64{}}
	for _, d := range perLayer {
		rep.Layer[d.Name] = 0
	}
	c := &ctx{seed: seed, scale: scale, traced: traced, rep: rep,
		tr: newTracer(traced, runID), digest: fnv.New64a()}

	if w.placed && runtime.NumCPU() < procs {
		// Two runner groups on one core measure the OS scheduler, not the
		// simulator: the numbers still print, but the run counts as failed.
		c.check("oversubscribed: a placed workload needs a core per runner group", false)
	}
	c.span("child", func() {
		w.fn(c)
		if traced {
			c.schedFloor(w.floorDepth)
			c.span("machine.ref_spin", func() { c.layer("machine.ref_spin_ms", refSpinMs()) })
			c.layer("machine.nproc", float64(runtime.NumCPU()))
		}
	})
	rep.Digest = fmt.Sprintf("%016x", c.digest.Sum64())

	if traced {
		// A layer's self time is its span minus its children, so the self
		// times of a well-nested trace add up to the root span.
		var sum time.Duration
		for _, d := range c.tr.selfTimes() {
			sum += d
		}
		root := c.tr.spans[0].End - c.tr.spans[0].Start
		c.check("span self times sum to the traced wall", (sum-root).Abs() <= root/20)
		// One file per (workload, seed): the latest traced run replaces it.
		rep.TracePath = filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, seed))
		if err := os.MkdirAll(outDir, 0o755); err == nil {
			err = c.tr.write(rep.TracePath)
			c.check("trace written", err == nil)
		}
	} else {
		rep.Layer = nil
	}
	return rep
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
