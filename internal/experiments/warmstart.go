package experiments

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/decomp"
	"repro/internal/netsim"
	"repro/internal/netsim/workload"
	"repro/internal/orch"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/stats"
)

// Warm-started parameter sweeps: run the warmup prefix once, checkpoint at
// the sync horizon, then fork every sweep point from the checkpoint instead
// of re-simulating the warmup. Each point restores into a fresh build,
// applies its configuration delta, and runs only the measured window. The
// identity point (no delta) must be bit-identical to a cold run whose
// wall-clock includes the warmup — the checkpoint layer's determinism
// guarantee, checked here end to end on the experiment surface.

// WarmStartPoint is one sweep point's outcome.
type WarmStartPoint struct {
	Name string
	// QueueCapBytes is the switch egress queue bound applied after warmup
	// (0 keeps the build's unbounded default — the identity point).
	QueueCapBytes int
	Flows         int
	Completed     int
	FCTP99        sim.Time
	Drops         uint64
	// Events is BaseEvents plus the resumed run's scheduler events.
	Events uint64
	WallMs float64
}

// WarmStartResult is the sweep report.
type WarmStartResult struct {
	Warmup, Dur     sim.Time
	BaseEvents      uint64
	CheckpointBytes int
	WarmupMs        float64
	ColdMs          float64
	ColdEvents      uint64
	// IdentityMatch records whether the identity point's final state digest
	// and event count matched the cold run exactly.
	IdentityMatch bool
	Points        []WarmStartPoint
}

func (r *WarmStartResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Warm-started sweep: warmup %v once (%.1f ms wall, %d events, %d checkpoint bytes), each point runs %v from the checkpoint\n",
		r.Warmup, r.WarmupMs, r.BaseEvents, r.CheckpointBytes, r.Dur-r.Warmup)
	fmt.Fprintf(&b, "cold reference: %.1f ms wall, %d events; identity point bit-identical: %v\n",
		r.ColdMs, r.ColdEvents, r.IdentityMatch)
	t := stats.NewTable("point", "queue_cap", "flows", "completed", "fct_p99", "drops", "events", "wall_ms")
	for _, p := range r.Points {
		cap := "unbounded"
		if p.QueueCapBytes > 0 {
			cap = fmt.Sprintf("%d", p.QueueCapBytes)
		}
		t.Row(p.Name, cap, p.Flows, p.Completed, p.FCTP99, p.Drops, p.Events, fmt.Sprintf("%.1f", p.WallMs))
	}
	b.WriteString(t.String())
	return b.String()
}

// buildWarmStart constructs one instance of the sweep fixture: a
// partitioned three-tier fabric with an open-loop UDP workload registered
// as checkpoint aux state. Every call with the same seed builds the
// identical simulation, which is what lets a checkpoint taken from one
// instance restore into another.
func buildWarmStart(opts Options) (*orch.Simulation, *netsim.Built, *workload.Engine) {
	spec := netsim.ThreeTierSpec{
		Aggs: 2, RacksPerAgg: 2, HostsPerRack: 2,
		CoreRate: 100 * sim.Gbps, AggRate: 40 * sim.Gbps,
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond,
	}
	topo, meta := netsim.ThreeTier(spec)
	inst := mustInstantiate(&config.System{Topo: topo},
		config.Choices{Seed: opts.Seed, Partition: decomp.Strategy{Name: "ac"}.Assign(meta, len(topo.Switches))})
	eng := workload.Install(inst.Built.Hosts, workload.Spec{
		Pattern: workload.Uniform{},
		Sizes:   workload.Pareto{Min: 600, Alpha: 1.3, Max: 20_000},
		Arrival: workload.Open{FlowsPerSec: 50_000},
		Seed:    opts.Seed,
	})
	inst.Sim.AddAuxState("wl", eng)
	return inst.Sim, inst.Built, eng
}

// warmStartDigest folds the fabric's and workload's full explicit state
// into one comparable value.
func warmStartDigest(built *netsim.Built, eng *workload.Engine) (uint64, error) {
	var e snap.Encoder
	for _, p := range built.Parts {
		if err := p.SnapshotState(&e); err != nil {
			return 0, err
		}
	}
	if err := eng.SnapshotState(&e); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(e.Bytes())
	return h.Sum64(), nil
}

// switchIfaces calls f on every switch interface of every partition.
func switchIfaces(built *netsim.Built, f func(*netsim.Iface)) {
	for _, p := range built.Parts {
		for _, sw := range p.Switches() {
			for _, ifc := range sw.Ifaces() {
				f(ifc)
			}
		}
	}
}

// WarmStart runs the warm-started sweep. Options.CheckpointAt overrides the
// warmup horizon; Options.CheckpointFile persists the checkpoint after
// capture; Options.RestoreFile skips the warmup run entirely and resumes
// from a previously saved checkpoint (which must come from an identical
// build: same seed, same scale).
func WarmStart(opts Options) (*WarmStartResult, error) {
	dur := opts.Dur(2*sim.Millisecond, 500*sim.Microsecond)
	warmup := dur / 2
	if opts.CheckpointAt > 0 {
		warmup = opts.CheckpointAt
		if warmup >= dur {
			return nil, fmt.Errorf("warmstart: -checkpoint-at %v must fall inside the run (duration %v)", warmup, dur)
		}
	}
	r := &WarmStartResult{Warmup: warmup, Dur: dur}

	// Warmup prefix: simulate once and checkpoint, or reload a saved one.
	var ck *orch.Checkpoint
	if opts.RestoreFile != "" {
		data, err := os.ReadFile(opts.RestoreFile)
		if err != nil {
			return nil, err
		}
		if ck, err = orch.LoadCheckpoint(data); err != nil {
			return nil, fmt.Errorf("warmstart: %s: %w", opts.RestoreFile, err)
		}
		if ck.At != warmup {
			return nil, fmt.Errorf("warmstart: checkpoint taken at %v, expected warmup horizon %v", ck.At, warmup)
		}
	} else {
		sw := newStopwatch()
		ws, _, _ := buildWarmStart(opts)
		var err error
		if ck, err = ws.CheckpointSequential(warmup); err != nil {
			return nil, err
		}
		r.WarmupMs = sw.ms()
	}
	r.BaseEvents = ck.BaseEvents
	r.CheckpointBytes = len(ck.Data)
	if opts.CheckpointFile != "" {
		if err := os.WriteFile(opts.CheckpointFile, ck.Data, 0o644); err != nil {
			return nil, err
		}
	}

	// Cold reference: the identity point simulated from time zero, warmup
	// included — the digest and event count the warm identity point must
	// reproduce exactly.
	coldW := newStopwatch()
	cold, coldBuilt, coldEng := buildWarmStart(opts)
	r.ColdEvents = newScenario(cold, dur).run("", nil).events
	r.ColdMs = coldW.ms()
	coldDigest, err := warmStartDigest(coldBuilt, coldEng)
	if err != nil {
		return nil, err
	}

	points := []struct {
		name string
		cap  int
	}{
		{"identity", 0},
		{"q32k", 32 << 10},
		{"q128k", 128 << 10},
	}
	for _, pt := range points {
		sw := newStopwatch()
		s, built, eng := buildWarmStart(opts)
		if pt.cap > 0 {
			// The sweep point's egress queue bound.
			switchIfaces(built, func(ifc *netsim.Iface) { ifc.QueueCapBytes = pt.cap })
		}
		sched, err := s.ResumeSequential(ck, dur)
		if err != nil {
			return nil, fmt.Errorf("warmstart: point %s: %w", pt.name, err)
		}
		wall := sw.ms()
		checkDrained(s)
		rep := eng.Collect()
		var drops uint64
		switchIfaces(built, func(ifc *netsim.Iface) { drops += ifc.Drops })
		p := WarmStartPoint{
			Name:          pt.name,
			QueueCapBytes: pt.cap,
			Flows:         rep.FlowsStarted,
			Completed:     rep.FlowsCompleted,
			FCTP99:        rep.FCT.Percentile(99),
			Drops:         drops,
			Events:        ck.BaseEvents + sched.Processed(),
			WallMs:        wall,
		}
		if pt.name == "identity" {
			d, err := warmStartDigest(built, eng)
			if err != nil {
				return nil, err
			}
			r.IdentityMatch = d == coldDigest && p.Events == r.ColdEvents
		}
		r.Points = append(r.Points, p)
	}
	return r, nil
}
