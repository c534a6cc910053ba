// Package splitsim is the public API of SplitSim-Go, a Go reproduction of
// "SplitSim: Towards Practical Large-Scale Full-System Simulation for
// Systems Research" (CoNEXT 2025).
//
// SplitSim enables end-to-end evaluation of large-scale network and
// distributed systems by combining four techniques on top of modular
// (SimBricks-style) simulation:
//
//   - mixed-fidelity simulation: detailed host simulators only where the
//     evaluation needs them, protocol-level simulation everywhere else;
//   - parallelization through decomposition: splitting bottleneck
//     simulators at component boundaries into synchronized processes,
//     including trunk adapters that multiplex many logical links over one
//     synchronized channel;
//   - a lightweight synchronization/communication profiler producing
//     wait-time-profile graphs that color bottleneck simulators red;
//   - a configuration and orchestration layer that separates the simulated
//     system's description from concrete simulator instantiation choices.
//
// This facade re-exports the pieces a simulation author composes. The
// subsystem packages under internal/ carry the implementations: sim (event
// kernel), link (channels + conservative sync), netsim (protocol-level
// network simulator), hostsim/nicsim/pci (detailed host path), memsim
// (multi-core memory-system simulator), decomp (partitioning + performance
// model), profiler, orch, instantiate, and the case-study applications
// under internal/apps.
//
// Quickstart — declare the system once, instantiate it, run the emitted
// simulation:
//
//	sys := &splitsim.System{}
//	sys.AddSwitch("tor")
//	sys.AddHost("server", "tor", 10*splitsim.Gbps, splitsim.Microsecond).Apps = ...
//	inst, err := sys.Instantiate(splitsim.Choices{Seed: seed})
//	inst.Sim.RunSequential(20 * splitsim.Millisecond)  // or RunCoupled, Plan
//
// Components can also be wired by hand (NewSimulation, NewNetwork,
// NewDetailedHost), and inst.Sim accepts more hand wiring before it runs.
//
// Every Run* method is a fixed-option spelling of one executor: resolve a
// Placement with Simulation.Plan and call ExecutionPlan.Execute, the
// conservative executor, with RunOptions to pick checkpoint resume/capture
// yourself. ExecutionPlan.RunOptimistic is the one way into speculation.
package splitsim

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/experiments"
	"repro/internal/hostsim"
	"repro/internal/instantiate"
	"repro/internal/link"
	"repro/internal/netsim"
	"repro/internal/nicsim"
	"repro/internal/orch"
	"repro/internal/profiler"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/tcpstack"
)

// Virtual time.
type (
	// Time is a point in (or span of) virtual time, in picoseconds.
	Time = sim.Time
	// Scheduler is the deterministic discrete-event scheduler.
	Scheduler = sim.Scheduler
	// Rand is the deterministic PRNG used throughout.
	Rand = sim.Rand
)

// Time units.
const (
	Picosecond  = sim.Picosecond
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Link rates.
const (
	Kbps = sim.Kbps
	Mbps = sim.Mbps
	Gbps = sim.Gbps
)

// Component model.
type (
	// Component is a simulator component runnable by the orchestrator.
	Component = core.Component
	// Message travels over channels between components.
	Message = core.Message
	// Port sends messages toward a peer component.
	Port = core.Port
	// Sink receives messages from a peer component.
	Sink = core.Sink
	// Fidelity selects protocol-level, qemu-, or gem5-class simulation.
	Fidelity = core.Fidelity
)

// Fidelity levels.
const (
	ProtocolLevel = core.ProtocolLevel
	Coarse        = core.Coarse
	Detailed      = core.Detailed
)

// Orchestration.
type (
	// Simulation is a configured set of components and channels.
	Simulation = orch.Simulation
	// Side describes one end of a channel connection.
	Side = orch.Side
)

// NewSimulation creates an empty simulation.
func NewSimulation() *Simulation { return orch.New() }

// Protocol-level network simulation.
type (
	// Network is the protocol-level network simulator (ns-3 analog).
	Network = netsim.Network
	// NetHost is a protocol-level host.
	NetHost = netsim.Host
	// Switch is an output-queued switch with a programmable dataplane.
	Switch = netsim.Switch
	// Topology declaratively describes a network for (partitioned) builds.
	Topology = netsim.Topology
	// TCPConn is one side of a TCP flow (Reno or DCTCP).
	TCPConn = tcpstack.Conn
)

// NewNetwork creates a protocol-level network simulator component.
func NewNetwork(name string, seed uint64) *Network { return netsim.New(name, seed) }

// Detailed host simulation.
type (
	// Host is a detailed full-system host simulator (qemu/gem5 analog).
	Host = hostsim.Host
	// HostParams tunes a detailed host's timing and simulation cost.
	HostParams = hostsim.Params
	// NIC is the behavioral NIC model (i40e analog).
	NIC = nicsim.NIC
	// NICParams tunes the NIC model.
	NICParams = nicsim.Params
	// DetailedHost bundles a host with its NIC for wiring.
	DetailedHost = instantiate.DetailedHost
)

// QemuParams returns the coarse (instruction-counting) host tier.
func QemuParams() HostParams { return hostsim.QemuParams() }

// DefaultNICParams returns the i40e-like 10G NIC configuration.
func DefaultNICParams() NICParams { return nicsim.DefaultParams() }

// NewDetailedHost constructs a host+NIC pair; Wire attaches it to a
// network's external port.
func NewDetailedHost(name string, ip IP, hp HostParams, np NICParams, seed uint64) *DetailedHost {
	return instantiate.NewDetailedHost(name, ip, hp, np, seed)
}

// Declarative configuration: describe the simulated system once, then
// instantiate it under different simulator choices.
type (
	// System is a Topology plus the apps, fidelities and detailed-host
	// settings of its host slots and the dataplanes of its switches.
	System = config.System
	// SystemHost is one host slot's configuration within a System.
	SystemHost = config.Host
	// Choices carries instantiation decisions (fidelities, partitioning).
	Choices = config.Choices
	// Instance is a runnable instantiation of a System; run its Sim.
	Instance = config.Instance
	// App is a configured application, written once against either host
	// tier's API (core.Host).
	App = config.App
)

// Decomposition and performance model.
type (
	// Strategy names a network partition strategy (s/ac/crN/rs).
	Strategy = decomp.Strategy
	// ModelParams tunes the decomposition performance model.
	ModelParams = decomp.Params
)

// Placement-aware execution: one build pipeline and one executor
// (ExecutionPlan.Execute) for sequential, coupled, multi-core, checkpointed
// and distributed runs, with co-location as a first-class knob;
// ExecutionPlan.RunOptimistic runs a plan speculatively.
type (
	// Placement maps component index -> runner group; any placement runs
	// bit-identically to the sequential execution.
	Placement = decomp.Placement
	// ExecutionPlan is the explicit wiring a Simulation derives from a
	// Placement: components, channels (direct/coupled/remote), groups.
	ExecutionPlan = orch.ExecutionPlan
	// RunOptions is everything ExecutionPlan.Execute lets a caller vary:
	// a checkpoint to resume from, and whether to capture one at the end.
	RunOptions = orch.RunOptions
	// RunResult is what an execution leaves behind: the schedulers and the
	// captured checkpoint.
	RunResult = orch.RunResult
)

// Placement constructors and the profiler→placement feedback loop.
var (
	// SingleGroup co-locates every component on one scheduler.
	SingleGroup = decomp.SingleGroup
	// PerComponent gives every component its own runner.
	PerComponent = decomp.PerComponent
	// RecommendPlacement greedily splits the bottleneck group and merges
	// idle neighbors based on a profiler Analysis.
	RecommendPlacement = decomp.RecommendPlacement
	// AutoPlace iterates RecommendPlacement over the decomposition model
	// until a fixed point.
	AutoPlace = decomp.AutoPlace
	// DefaultModelParams returns the calibrated decomposition model
	// parameters for a run of the given duration.
	DefaultModelParams = decomp.DefaultParams
	// HostModelParams returns model parameters tuned to the executing
	// host: GOMAXPROCS as the core budget, measured per-sync cost from
	// the live channel fabric.
	HostModelParams = orch.HostModelParams
	// MeasureSyncCost wall-clock-prices one sync exchange on this
	// machine's channel fabric.
	MeasureSyncCost = link.MeasureSyncCost
)

// Profiling.
type (
	// Collector samples adapter counters during coupled runs.
	Collector = profiler.Collector
	// Analysis is the post-processed profile.
	Analysis = profiler.Analysis
	// WTPG is the wait-time-profile graph.
	WTPG = profiler.WTPG
)

// NewCollector creates a profiler collector; attach it via Simulation.PreRun.
func NewCollector() *Collector { return profiler.NewCollector() }

// Analyze post-processes profiler samples, dropping warm-up/cool-down.
func Analyze(samples []profiler.Sample, dropWarm, dropCool int) (*Analysis, error) {
	return profiler.Analyze(samples, dropWarm, dropCool)
}

// BuildWTPG constructs the wait-time-profile graph from an analysis.
func BuildWTPG(a *Analysis) *WTPG { return profiler.BuildWTPG(a) }

// Channel is a synchronized SplitSim channel (coupled mode).
type Channel = link.Channel

// Experiments: the paper's evaluation harnesses.
type (
	// ExpOptions scales and seeds an experiment run.
	ExpOptions = experiments.Options
)

// Experiment entry points regenerate the paper's tables and figures.
var (
	Fig4           = experiments.Fig4
	Fig5           = experiments.Fig5
	Fig6           = experiments.Fig6
	Fig7           = experiments.Fig7
	Fig8           = experiments.Fig8
	Fig9           = experiments.Fig9
	Fig10          = experiments.Fig10
	ClockSyncCS    = experiments.ClockSync
	Table1         = experiments.Table1
	ConfigEffort   = experiments.ConfigEffort
	PlacementStudy = experiments.PlacementStudy
)

// IP is an IPv4 address in host integer form.
type IP = proto.IP

// HostIP derives a stable 10.0.0.0/8 address for a host id.
func HostIP(id uint32) IP { return proto.HostIP(id) }

// WirePartitions connects a partitioned topology's boundaries on a
// simulation, one channel per boundary link; its last argument is ignored.
var WirePartitions = instantiate.WirePartitions
