package orch_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/hostsim"
	"repro/internal/instantiate"
	"repro/internal/link"
	"repro/internal/memsim"
	"repro/internal/netsim"
	"repro/internal/netsim/topogen"
	"repro/internal/netsim/workload"
	"repro/internal/nicsim"
	"repro/internal/orch"
	"repro/internal/profiler"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/snap"
)

// buildCkptSim constructs the checkpoint test fixture: a partitioned
// three-tier fabric (ac strategy: 1 core+agg part per agg block plus rack
// parts) with a UDP open-loop workload riding along as aux state. Every
// call with the same seed builds an identical simulation — the premise of
// restore-into-fresh-build.
func buildCkptSim(seed uint64, arrival workload.Arrival) (*orch.Simulation, *netsim.Built, *workload.Engine) {
	spec := netsim.ThreeTierSpec{
		Aggs: 2, RacksPerAgg: 2, HostsPerRack: 2,
		CoreRate: 100 * sim.Gbps, AggRate: 40 * sim.Gbps,
		HostRate: 10 * sim.Gbps, LinkDelay: sim.Microsecond,
	}
	topo, meta := netsim.ThreeTier(spec)
	assign := decomp.Strategy{Name: "ac"}.Assign(meta, len(topo.Switches))
	built := topo.Build("net", seed, assign, nil)
	eng := workload.Install(built.Hosts, workload.Spec{
		Pattern: workload.Uniform{},
		Sizes:   workload.Pareto{Min: 600, Alpha: 1.3, Max: 20_000},
		Arrival: arrival,
		Seed:    seed,
	})
	s := orch.New()
	instantiate.WirePartitions(s, topo, built, true)
	s.AddAuxState("wl", eng)
	return s, built, eng
}

// ckptDigest folds the full explicit state of the fabric and workload into
// one value. Two runs that reach the same virtual time with identical state
// produce identical digests regardless of placement or checkpointing.
func ckptDigest(t *testing.T, built *netsim.Built, eng *workload.Engine) uint64 {
	t.Helper()
	var e snap.Encoder
	for _, p := range built.Parts {
		if err := p.SnapshotState(&e); err != nil {
			t.Fatalf("digest snapshot: %v", err)
		}
	}
	if err := eng.SnapshotState(&e); err != nil {
		t.Fatalf("digest snapshot: %v", err)
	}
	h := fnv.New64a()
	h.Write(e.Bytes())
	return h.Sum64()
}

// ckptModes are the multi-group executions both checkpoint properties sweep:
// resuming and capturing must be indifferent to how the groups synchronize,
// speculation included.
var ckptModes = []ckptMode{{"parallel", false}, {"optimistic", true}}

type ckptMode struct {
	name string
	spec bool // speculate at DefaultSpecWindows
}

// execute runs the plan of p under o in mode m; the report is nil unless m
// speculates.
func (m ckptMode) execute(tb testing.TB, s *orch.Simulation, p decomp.Placement, end sim.Time,
	o orch.RunOptions) (*orch.RunResult, *orch.SpecReport, uint64) {
	if m.spec {
		return speculate(tb, s, p, end, o, orch.DefaultSpecWindows)
	}
	res, events := execute(tb, s, p, end, o)
	return res, nil, events
}

// TestCheckpointRestoreBitIdentical is the tentpole's acceptance property:
// checkpoint at the halfway horizon, restore into a fresh build, run to the
// end — the final state digest, the total event count, and the leaked-frame
// count (zero) all match an uninterrupted run exactly. The resumed half
// runs sequentially, in parallel, and optimistically, across
// GOMAXPROCS {1, 2, 4, NumCPU}.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	const (
		dur  = 2 * sim.Millisecond
		half = sim.Millisecond
	)
	arrival := workload.Open{FlowsPerSec: 50_000}
	for seed := uint64(1); seed <= 2; seed++ {
		// Uninterrupted reference run.
		ref, refBuilt, refEng := buildCkptSim(seed, arrival)
		refSched := ref.RunSequential(dur)
		refEvents := refSched.Processed()
		refDigest := ckptDigest(t, refBuilt, refEng)
		if n := ref.LiveFrames(); n != 0 {
			t.Fatalf("seed %d: reference run leaked %d frames", seed, n)
		}

		// Sequential checkpoint at the halfway horizon.
		cs, _, _ := buildCkptSim(seed, arrival)
		ck, err := cs.CheckpointSequential(half)
		if err != nil {
			t.Fatalf("seed %d: CheckpointSequential: %v", seed, err)
		}
		if n := cs.LiveFrames(); n != 0 {
			t.Fatalf("seed %d: checkpoint run leaked %d frames", seed, n)
		}
		if ck.At != half || ck.BaseEvents == 0 || ck.BaseEvents >= refEvents {
			t.Fatalf("seed %d: checkpoint at=%v base=%d (ref total %d)",
				seed, ck.At, ck.BaseEvents, refEvents)
		}

		// Sequential resume.
		rs, rBuilt, rEng := buildCkptSim(seed, arrival)
		rSched, err := rs.ResumeSequential(ck, dur)
		if err != nil {
			t.Fatalf("seed %d: ResumeSequential: %v", seed, err)
		}
		if d := ckptDigest(t, rBuilt, rEng); d != refDigest {
			t.Fatalf("seed %d: sequential resume digest %#x != reference %#x", seed, d, refDigest)
		}
		if got := ck.BaseEvents + rSched.Processed(); got != refEvents {
			t.Fatalf("seed %d: events %d (base) + %d (resumed) = %d, want %d",
				seed, ck.BaseEvents, rSched.Processed(), got, refEvents)
		}
		if n := rs.LiveFrames(); n != 0 {
			t.Fatalf("seed %d: resumed run leaked %d frames", seed, n)
		}

		// Placed and parallel resumes at every GOMAXPROCS level.
		nComps := rs.NumComponents()
		for _, procs := range gomaxprocsSweep() {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				for _, m := range ckptModes {
					s2, b2, e2 := buildCkptSim(seed, arrival)
					_, _, events := m.execute(t, s2, decomp.PerComponent(nComps), dur, orch.RunOptions{Resume: ck})
					if d := ckptDigest(t, b2, e2); d != refDigest {
						t.Fatalf("seed %d procs %d %s: placed resume digest %#x != reference %#x",
							seed, procs, m.name, d, refDigest)
					}
					if got := ck.BaseEvents + events; got != refEvents {
						t.Fatalf("seed %d procs %d %s: events %d+%d != %d",
							seed, procs, m.name, ck.BaseEvents, events, refEvents)
					}
					if n := s2.LiveFrames(); n != 0 {
						t.Fatalf("seed %d procs %d %s: leaked %d frames", seed, procs, m.name, n)
					}
				}
			}()
		}
	}
}

// TestCheckpointMidPipelineResume captures at a horizon that finds frames
// inside switch pipelines — past their link arrival, before their egress
// enqueue, each one pending cut-through event — and frames a boundary port
// already handed over that have not yet departed, under one group and
// under two, and resumes every capture under both: each resume must end in
// the state and event count of an uninterrupted run. The captured switch
// counters trail a cold run stopped at the same horizon, which counts its
// mid-pipeline frames as it discards their events; the gap proves the
// capture held some. boundaryHeld proves the held frames.
func TestCheckpointMidPipelineResume(t *testing.T) {
	const (
		seed = 2
		dur  = 2 * sim.Millisecond
		at   = sim.Millisecond + 137
	)
	arrival := workload.Open{FlowsPerSec: 50_000}
	switchRx := func(b *netsim.Built) (n uint64) {
		for _, sw := range b.Switches {
			n += sw.RxPackets
		}
		return n
	}

	ref, refBuilt, refEng := buildCkptSim(seed, arrival)
	refEvents := ref.RunSequential(dur).Processed()
	refDigest := ckptDigest(t, refBuilt, refEng)
	cold, coldBuilt, _ := buildCkptSim(seed, arrival)
	cold.RunSequential(at)
	coldRx := switchRx(coldBuilt)
	if held := boundaryHeld(at); held == 0 || held > 1<<62 {
		t.Fatalf("%d frames held on boundary ports at the horizon: no hold window", int64(held))
	}

	n := ref.NumComponents()
	placements := []decomp.Placement{decomp.SingleGroup(n), blocked(n)}
	for _, cp := range placements {
		cs, _, _ := buildCkptSim(seed, arrival)
		res, _ := execute(t, cs, cp, at, orch.RunOptions{Capture: true})
		ck := res.Checkpoint
		for _, rp := range placements {
			rs, rBuilt, rEng := buildCkptSim(seed, arrival)
			var capturedRx uint64
			rs.PreRun = func(*link.Group) { capturedRx = switchRx(rBuilt) }
			_, events := execute(t, rs, rp, dur, orch.RunOptions{Resume: ck})
			if capturedRx >= coldRx {
				t.Fatalf("capture %d groups: switch rx %d at the horizon, cold run %d: no frame was mid-pipeline",
					cp.NumGroups(), capturedRx, coldRx)
			}
			if d := ckptDigest(t, rBuilt, rEng); d != refDigest {
				t.Fatalf("capture %d groups, resume %d groups: digest %#x != uninterrupted %#x",
					cp.NumGroups(), rp.NumGroups(), d, refDigest)
			}
			if got := ck.BaseEvents + events; got != refEvents {
				t.Fatalf("capture %d groups, resume %d groups: events %d+%d != %d",
					cp.NumGroups(), rp.NumGroups(), ck.BaseEvents, events, refEvents)
			}
			if n := rs.LiveFrames(); n != 0 {
				t.Fatalf("capture %d groups, resume %d groups: leaked %d frames", cp.NumGroups(), rp.NumGroups(), n)
			}
		}
	}
}

// TestCheckpointBytesPlacementInvariant: the serialized checkpoint is
// byte-for-byte identical whether it was captured from a sequential run or
// a quiesced placed run under any mode — sink names and the canonical
// (time, source) event order erase the placement. The blocked placement cuts
// several boundary channels at one latency onto one sync bundle, whose
// per-channel message counts must serialize as each channel's own.
func TestCheckpointBytesPlacementInvariant(t *testing.T) {
	const half = sim.Millisecond
	arrival := workload.Open{FlowsPerSec: 50_000}

	seqSim, _, _ := buildCkptSim(3, arrival)
	seqCk, err := seqSim.CheckpointSequential(half)
	if err != nil {
		t.Fatalf("CheckpointSequential: %v", err)
	}
	n := seqSim.NumComponents()
	for _, p := range []decomp.Placement{decomp.PerComponent(n), blocked(n)} {
		for _, m := range ckptModes {
			ps, _, _ := buildCkptSim(3, arrival)
			if p.Name == "blocked2" && maxBundleShare(t, ps, p) < 2 {
				t.Fatal("no two channels share a sync bundle: the blocked row tests nothing")
			}
			res, _, _ := m.execute(t, ps, p, half, orch.RunOptions{Capture: true})
			pck := res.Checkpoint
			if pck.BaseEvents != seqCk.BaseEvents {
				t.Fatalf("%s %s: base events %d != sequential %d", p.Name, m.name, pck.BaseEvents, seqCk.BaseEvents)
			}
			if !bytes.Equal(pck.Data, seqCk.Data) {
				t.Fatalf("%s %s: checkpoint bytes differ from sequential capture (%d vs %d bytes)",
					p.Name, m.name, len(pck.Data), len(seqCk.Data))
			}
			if n := ps.LiveFrames(); n != 0 {
				t.Fatalf("%s %s: placed checkpoint leaked %d frames", p.Name, m.name, n)
			}
		}
	}
}

// TestCheckpointClosedLoop drives the named burst re-arm path: a
// closed-loop workload's pending pacing bursts must ride through the
// checkpoint and keep the resumed run bit-identical.
func TestCheckpointClosedLoop(t *testing.T) {
	const (
		dur  = 2 * sim.Millisecond
		half = sim.Millisecond
	)
	arrival := workload.Closed{Concurrency: 2}

	ref, refBuilt, refEng := buildCkptSim(7, arrival)
	refEvents := ref.RunSequential(dur).Processed()
	refDigest := ckptDigest(t, refBuilt, refEng)

	cs, _, _ := buildCkptSim(7, arrival)
	ck, err := cs.CheckpointSequential(half)
	if err != nil {
		t.Fatalf("CheckpointSequential: %v", err)
	}
	rs, rBuilt, rEng := buildCkptSim(7, arrival)
	rSched, err := rs.ResumeSequential(ck, dur)
	if err != nil {
		t.Fatalf("ResumeSequential: %v", err)
	}
	if d := ckptDigest(t, rBuilt, rEng); d != refDigest {
		t.Fatalf("closed-loop resume digest %#x != reference %#x", d, refDigest)
	}
	if got := ck.BaseEvents + rSched.Processed(); got != refEvents {
		t.Fatalf("closed-loop events %d+%d != %d", ck.BaseEvents, rSched.Processed(), refEvents)
	}
}

// buildMemSplit is the split core/memory fixture: four memsim cores and one
// memory, every component checkpointable and no aux state, so a placed
// optimistic run of it genuinely speculates.
func buildMemSplit() (*orch.Simulation, []*memsim.Core, *memsim.Mem) {
	s := orch.New()
	cores, mem := memsim.BuildSplit(s, 4, memsim.DefaultParams())
	return s, cores, mem
}

// memSplitDigest folds the fixture's full explicit state into one value.
func memSplitDigest(t *testing.T, cores []*memsim.Core, mem *memsim.Mem) uint64 {
	t.Helper()
	var e snap.Encoder
	if err := mem.SnapshotState(&e); err != nil {
		t.Fatalf("mem snapshot: %v", err)
	}
	for _, c := range cores {
		if err := c.SnapshotState(&e); err != nil {
			t.Fatalf("core snapshot: %v", err)
		}
	}
	h := fnv.New64a()
	h.Write(e.Bytes())
	return h.Sum64()
}

// TestCheckpointMemsimSplit checkpoints the split core/memory build midway
// and verifies the resumed halves reproduce the uninterrupted run's
// transaction counts and stall accounting, sequentially and placed.
func TestCheckpointMemsimSplit(t *testing.T) {
	const (
		dur  = 50 * sim.Microsecond
		half = 25 * sim.Microsecond
	)
	ref, refCores, refMem := buildMemSplit()
	refEvents := ref.RunSequential(dur).Processed()
	refDigest := memSplitDigest(t, refCores, refMem)

	cs, _, _ := buildMemSplit()
	ck, err := cs.CheckpointSequential(half)
	if err != nil {
		t.Fatalf("CheckpointSequential: %v", err)
	}

	rs, rCores, rMem := buildMemSplit()
	rSched, err := rs.ResumeSequential(ck, dur)
	if err != nil {
		t.Fatalf("ResumeSequential: %v", err)
	}
	if d := memSplitDigest(t, rCores, rMem); d != refDigest {
		t.Fatalf("memsim sequential resume digest %#x != reference %#x", d, refDigest)
	}
	if got := ck.BaseEvents + rSched.Processed(); got != refEvents {
		t.Fatalf("memsim events %d+%d != %d", ck.BaseEvents, rSched.Processed(), refEvents)
	}

	// No aux state here, so the optimistic row genuinely speculates on both
	// sides of the checkpoint. Blocked, three core channels share one sync
	// bundle.
	n := cs.NumComponents()
	for _, p := range []decomp.Placement{decomp.PerComponent(n), blocked(n)} {
		for _, m := range ckptModes {
			cp, _, _ := buildMemSplit()
			res, spec, _ := m.execute(t, cp, p, half, orch.RunOptions{Capture: true})
			if !bytes.Equal(res.Checkpoint.Data, ck.Data) {
				t.Fatalf("memsim %s %s capture differs from the sequential capture", p.Name, m.name)
			}

			ps, pCores, pMem := buildMemSplit()
			_, _, events := m.execute(t, ps, p, dur, orch.RunOptions{Resume: ck})
			if d := memSplitDigest(t, pCores, pMem); d != refDigest {
				t.Fatalf("memsim %s %s resume digest %#x != reference %#x", p.Name, m.name, d, refDigest)
			}
			if got := ck.BaseEvents + events; got != refEvents {
				t.Fatalf("memsim %s %s events %d+%d != %d", p.Name, m.name, ck.BaseEvents, events, refEvents)
			}
			if m.spec && spec.Totals().Snapshots == 0 {
				t.Errorf("memsim %s optimistic capture never snapshotted: speculation did not engage", p.Name)
			}
		}
	}
}

// TestCheckpointProfiledRun: a profiled run posts no events of its own, so
// under every mode it captures the very bytes the unprofiled sequential run
// does (the profiler's closure tick used to fail capture with
// ErrClosureEvent).
func TestCheckpointProfiledRun(t *testing.T) {
	const half = 25 * sim.Microsecond
	seq, _, _ := buildMemSplit()
	want, err := seq.CheckpointSequential(half)
	if err != nil {
		t.Fatalf("CheckpointSequential: %v", err)
	}
	for _, m := range ckptModes {
		s, _, _ := buildMemSplit()
		col := profiler.NewCollector()
		s.PreRun = func(g *link.Group) { col.Attach(g, half/16) }
		res, _, _ := m.execute(t, s, decomp.PerComponent(s.NumComponents()), half, orch.RunOptions{Capture: true})
		if !bytes.Equal(res.Checkpoint.Data, want.Data) {
			t.Fatalf("%s: profiled capture differs from the unprofiled sequential capture", m.name)
		}
		if len(col.Samples()) == 0 {
			t.Fatalf("%s: profiler collected no samples", m.name)
		}
	}
}

// TestLoadCheckpoint exercises the serialized form: a round trip through
// LoadCheckpoint preserves the metadata and restores correctly, while
// truncated or corrupted bytes surface the codec's typed errors instead of
// garbage state.
func TestLoadCheckpoint(t *testing.T) {
	arrival := workload.Open{FlowsPerSec: 50_000}
	cs, _, _ := buildCkptSim(5, arrival)
	ck, err := cs.CheckpointSequential(sim.Millisecond)
	if err != nil {
		t.Fatalf("CheckpointSequential: %v", err)
	}

	got, err := orch.LoadCheckpoint(ck.Data)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if got.At != ck.At || got.BaseEvents != ck.BaseEvents {
		t.Fatalf("round trip: at=%v base=%d, want at=%v base=%d",
			got.At, got.BaseEvents, ck.At, ck.BaseEvents)
	}
	rs, _, _ := buildCkptSim(5, arrival)
	if _, err := rs.ResumeSequential(got, 2*sim.Millisecond); err != nil {
		t.Fatalf("resume from reloaded checkpoint: %v", err)
	}

	if _, err := orch.LoadCheckpoint(ck.Data[:len(ck.Data)/2]); !errors.Is(err, snap.ErrTruncated) && !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("truncated checkpoint: err = %v, want ErrTruncated or ErrCorrupt", err)
	}
	garbled := append([]byte(nil), ck.Data...)
	garbled[len(garbled)/2] ^= 0x5a
	if _, err := orch.LoadCheckpoint(garbled); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("garbled checkpoint: err = %v, want ErrCorrupt", err)
	}
	// Containers of the previous formats — sinks addressed by name (1), a
	// conns section split into direct and trunk channels (2), a sink walk
	// without the switches' cut-through sinks (3), deliveries to lagged
	// sinks stamped at arrival instead of arrival + lag (4), a sink walk
	// with the external ports' departure sinks (5) — are rejected on their
	// version, not misparsed. The CRC covers the version field, so each
	// re-stamped container gets a valid one.
	for _, v := range []uint16{1, 2, 3, 4, 5} {
		stale := append([]byte(nil), ck.Data...)
		binary.LittleEndian.PutUint16(stale[4:], v)
		binary.LittleEndian.PutUint32(stale[len(stale)-4:], crc32.ChecksumIEEE(stale[:len(stale)-4]))
		if _, err := orch.LoadCheckpoint(stale); !errors.Is(err, snap.ErrVersion) {
			t.Fatalf("version-%d checkpoint: err = %v, want ErrVersion", v, err)
		}
	}
}

// editSection returns ck re-framed with one section passed through edit,
// which may modify the (copied) bytes in place.
func editSection(t *testing.T, ck *orch.Checkpoint, section string, edit func(sec []byte)) *orch.Checkpoint {
	t.Helper()
	r, err := snap.Open(ck.Data)
	if err != nil {
		t.Fatal(err)
	}
	w := snap.NewWriter()
	for _, name := range r.Names() {
		sec, err := r.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == section {
			sec = append([]byte(nil), sec...)
			edit(sec)
		}
		if err := w.Section(name, sec); err != nil {
			t.Fatal(err)
		}
	}
	out, err := orch.LoadCheckpoint(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ckptSection returns one section of ck.
func ckptSection(t *testing.T, ck *orch.Checkpoint, name string) []byte {
	t.Helper()
	r, err := snap.Open(ck.Data)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := r.Section(name)
	if err != nil {
		t.Fatal(err)
	}
	return sec
}

// ckptSinkCount reads the sink count the metadata section ends with.
func ckptSinkCount(t *testing.T, ck *orch.Checkpoint) uint32 {
	t.Helper()
	meta := ckptSection(t, ck, "meta")
	return binary.LittleEndian.Uint32(meta[len(meta)-4:])
}

// deliverySinkOffsets parses an events section whose deliveries carry frame
// payloads and returns the offset of each delivery's sink ordinal.
func deliverySinkOffsets(t *testing.T, sec []byte) []int {
	t.Helper()
	d := snap.NewDecoder(sec)
	var offs []int
	for n := d.U32(); n > 0 && d.Err() == nil; n-- {
		d.I64() // time
		d.U32() // source
		switch kind := d.U8(); kind {
		case sim.PendingNamed:
			d.Bytes32() // handler name
			d.U64()
			d.U64()
			d.U64()
		case sim.PendingDelivery:
			offs = append(offs, len(sec)-d.Remaining())
			d.U32()
			if codec := d.String(); codec != "proto.Frame" && codec != "proto.WireFrame" {
				t.Fatalf("delivery payload codec %q, want a frame", codec)
			}
			d.Bytes32()
		default:
			t.Fatalf("event kind %d", kind)
		}
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("events section: err %v, %d bytes left over", d.Err(), d.Remaining())
	}
	return offs
}

// TestCheckpointRejectsSinkCountMismatch: a checkpoint whose recorded sink
// count differs from the build's walk cannot address its deliveries, so the
// restore fails with the typed error before posting any event and leaves no
// frame checked out, under both placements.
func TestCheckpointRejectsSinkCountMismatch(t *testing.T) {
	arrival := workload.Open{FlowsPerSec: 50_000}
	cs, _, _ := buildCkptSim(1, arrival)
	ck, err := cs.CheckpointSequential(sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	nsinks := ckptSinkCount(t, ck)
	bad := editSection(t, ck, "meta", func(sec []byte) {
		binary.LittleEndian.PutUint32(sec[len(sec)-4:], nsinks+1)
	})

	n := cs.NumComponents()
	for _, p := range []decomp.Placement{decomp.SingleGroup(n), decomp.PerComponent(n)} {
		rs, _, _ := buildCkptSim(1, arrival)
		pl, err := rs.Plan(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pl.Execute(2*sim.Millisecond, orch.RunOptions{Resume: bad})
		if !errors.Is(err, core.ErrNotCheckpointable) {
			t.Fatalf("%s: err = %v, want ErrNotCheckpointable", p.Name, err)
		}
		for gi, sc := range res.Scheds {
			if posted := sc.CaptureMark().Seq; posted != 0 {
				t.Fatalf("%s: group %d had %d events posted before the rejection", p.Name, gi, posted)
			}
		}
		if live := rs.LiveFrames(); live != 0 {
			t.Fatalf("%s: failed resume left %d pooled frames checked out", p.Name, live)
		}
	}
}

// buildFlowFabric is a flat k=4 fat tree carrying long-lived DCTCP flows
// between fixed host pairs, started by the sender's app; extra adds one
// more pair.
func buildFlowFabric(extra bool) *orch.Simulation {
	topo, _ := netsim.FatTree(4, 10*sim.Gbps, 40*sim.Gbps, sim.Microsecond)
	built := topo.Build("net", 1, nil, nil)
	pairs := [][2]int{{0, 15}, {5, 10}}
	if extra {
		pairs = append(pairs, [2]int{3, 12})
	}
	for i, p := range pairs {
		src := built.Hosts[p[0]]
		snd, _ := netsim.NewFlow(src, built.Hosts[p[1]], uint16(40000+i), proto.PortBulk, netsim.CCDCTCP, 0, nil)
		src.SetApp(netsim.AppFunc(func(*netsim.Host) { snd.StartFlow() }))
	}
	s := orch.New()
	instantiate.WirePartitions(s, topo, built, true)
	return s
}

// TestCheckpointRejectsTCPConnMismatch: TCP connections are build-time
// identity, so restoring into a build that installed one more flow than
// the captured one fails with the typed error instead of silently dropping
// the extra connection, and leaves no frame checked out.
func TestCheckpointRejectsTCPConnMismatch(t *testing.T) {
	ck, err := buildFlowFabric(false).CheckpointSequential(200 * sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	rs := buildFlowFabric(true)
	if _, err := rs.ResumeSequential(ck, sim.Millisecond); !errors.Is(err, core.ErrNotCheckpointable) {
		t.Fatalf("resume into a build with an extra flow: err = %v, want ErrNotCheckpointable", err)
	}
	if live := rs.LiveFrames(); live != 0 {
		t.Fatalf("failed resume left %d pooled frames checked out", live)
	}
}

// TestCheckpointRestoreAllocsFlatInSinks: restore cost is independent of
// fabric size. On a lazy Clos with over ten thousand sinks, resuming a
// checkpoint holding a few hundred pending deliveries for a few microseconds
// allocates fewer objects than the build has sinks, because resolving a
// delivery's sink costs nothing per sink in the fabric.
func TestCheckpointRestoreAllocsFlatInSinks(t *testing.T) {
	const (
		warm = 300 * sim.Microsecond
		tail = 2 * sim.Microsecond
	)
	build := func() *orch.Simulation {
		spec := topogen.ClosSpec{
			Pods: 10, LeafPerPod: 32, SpinePerPod: 8, Cores: 32, HostsPerLeaf: 32,
			HostRate: 10 * sim.Gbps, LeafRate: 40 * sim.Gbps, CoreRate: 100 * sim.Gbps,
			LinkDelay: sim.Microsecond, Lazy: true,
		}
		topo, m := topogen.Clos(spec)
		b := topo.Build("fab", 1, nil, nil)
		var hosts []*netsim.Host
		for p := range m.HostSlots {
			for l := 0; l < spec.LeafPerPod; l += 4 {
				hosts = append(hosts, b.MaterializeSlot(m.HostSlots[p][l][0]))
			}
		}
		eng := workload.Install(hosts, workload.Spec{
			Pattern: workload.Uniform{},
			Sizes:   workload.Fixed(10_000),
			Arrival: workload.Open{FlowsPerSec: 50_000},
			Seed:    1,
		})
		s := orch.New()
		instantiate.WirePartitions(s, topo, b, true)
		s.AddAuxState("wl", eng)
		return s
	}
	ck, err := build().CheckpointSequential(warm)
	if err != nil {
		t.Fatal(err)
	}
	sinks := ckptSinkCount(t, ck)
	deliveries := len(deliverySinkOffsets(t, ckptSection(t, ck, "events")))
	if sinks < 10_000 || deliveries < 100 {
		t.Fatalf("fixture has %d sinks and %d pending deliveries, want >= 10000 and >= 100", sinks, deliveries)
	}

	rs := build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := rs.ResumeSequential(ck, warm+tail); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d sinks, %d deliveries: resume allocated %d objects", sinks, deliveries, allocs)
	if allocs >= uint64(sinks) {
		t.Fatalf("resume allocated %d objects for %d pending deliveries, want fewer than the %d sinks",
			allocs, deliveries, sinks)
	}
}

// TestCheckpointRejectsImplicitState: a simulation containing a component
// without explicit state (the detailed host pipeline) fails checkpointing
// with the typed error rather than silently dropping state.
func TestCheckpointRejectsImplicitState(t *testing.T) {
	n := netsim.New("net", 1)
	sw := n.AddSwitch("sw")
	ip := proto.HostIP(5)
	ext := n.AddExternal(sw, "h", 10*sim.Gbps, ip)
	n.ComputeRoutes()
	s := orch.New()
	s.Add(n)
	dh := instantiate.NewDetailedHost("h", ip, hostsim.QemuParams(), nicsim.DefaultParams(), 3)
	dh.Wire(s, n, ext)

	if _, err := s.CheckpointSequential(sim.Millisecond); !errors.Is(err, core.ErrNotCheckpointable) {
		t.Fatalf("detailed-host checkpoint: err = %v, want ErrNotCheckpointable", err)
	}
}
