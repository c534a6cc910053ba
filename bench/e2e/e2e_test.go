package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// smokeScale shrinks every simulated duration for the smoke test.
const smokeScale = 1.0 / 50

// mustMove lists, per workload, layer metrics that read 0 only if the span or
// counter behind them has come unhooked.
var mustMove = map[string][]string{
	"fullsys_dctcp": {"sim.events", "hostsim.rx_pkts", "hostsim.tx_pkts", "nicsim.rx_frames", "nicsim.tx_frames",
		"tcpstack.delivered_bytes", "hostsim.proto_variant_run_s", "netsim.switch_rx_pkts", "proto.frame_reuses"},
	"fabric_shuffle": {"sim.events", "topogen.gen_s", "netsim.build_s", "netsim.materialize_s", "workload.install_s",
		"netsim.switch_rx_pkts", "netsim.route_entries_max", "workload.flows_completed", "workload.fct_p99_us", "snap.state_encode_s"},
	"netsplit_par": {"sim.events", "orch.plan_s", "orch.groups", "link.tx_data", "link.tx_sync", "link.sync_cost_ns",
		"orch.seq_ref_run_s", "orch.par_over_seq", "profiler.samples", "decomp.pred_wall_s_per_sim_s", "workload.flows_completed"},
	"memsplit_par": {"sim.events", "orch.groups", "link.tx_sync", "link.rx_sync", "link.wait_s", "link.sync_per_event",
		"memsim.blocks", "memsim.txns", "orch.par_over_seq", "profiler.samples", "decomp.pred_over_measured"},
	"memsplit_opt": {"sim.events", "link.tx_sync", "link.spec_snapshots", "link.spec_commit_ratio", "memsim.blocks", "orch.seq_ref_run_s"},
	"mixed_1m": {"sim.events", "topogen.gen_s", "netsim.build_s", "flowsim.install_s", "flowsim.active_flows",
		"flowsim.proj_pkt_events", "netsim.route_bytes_per_host", "snap.state_encode_s"},
	"warm_sweep": {"sim.events", "orch.ckpt_s", "orch.load_s", "orch.resume_s", "snap.ckpt_bytes", "workload.flows_started"},
}

var always = []string{"orch.run_s", "sim.ns_per_event", "sim.sched_floor_ns", "runtime.total_alloc_mb", "machine.nproc", "machine.ref_spin_ms"}

func TestSmoke(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q", d.Name)
		}
	}
	out := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep := runChild(w, 42, smokeScale, true, out)
			for _, f := range rep.Failures {
				// Flows may not complete in a fiftieth of the run.
				if f != "flows completed > 0" {
					t.Errorf("failed check: %s", f)
				}
			}
			for _, d := range endToEnd {
				if v := rep.e2e(d.Name); !(v > 0) {
					t.Errorf("%s = %v", d.Name, v)
				}
			}
			if len(rep.Layer) != len(perLayer) {
				t.Errorf("%d layer metrics reported, %d defined", len(rep.Layer), len(perLayer))
			}
			for _, name := range append(append([]string{}, always...), mustMove[w.name]...) {
				if !(rep.Layer[name] > 0) {
					t.Errorf("%s = %v, want > 0", name, rep.Layer[name])
				}
			}
			if w.name == "memsplit_opt" && rep.Layer["orch.spec_demoted_groups"] != 0 {
				t.Errorf("%v groups demoted", rep.Layer["orch.spec_demoted_groups"])
			}
			checkTrace(t, rep.TracePath)

			again := runChild(w, 42, smokeScale, false, out)
			if again.Digest != rep.Digest {
				t.Errorf("digest %s, then %s", rep.Digest, again.Digest)
			}
			if !w.placed && again.Events != rep.Events {
				t.Errorf("events %d, then %d", rep.Events, again.Events)
			}
		})
	}
}

// checkTrace parses a Chrome-trace file and checks that every span is a root
// or names an earlier span as its parent.
func checkTrace(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string
			Dur  float64
			Args struct {
				ID, Parent int
				Run        string
			}
		}
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tr.TraceEvents) < 3 {
		t.Fatalf("%s: %d spans", path, len(tr.TraceEvents))
	}
	for i, e := range tr.TraceEvents {
		if e.Args.ID != i || e.Args.Parent >= i || e.Args.Parent < -1 || e.Args.Run == "" || e.Name == "" {
			t.Errorf("span %d: %+v", i, e)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json, which -calibrate
// writes, in step with the metric and workload tables it is written from.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkJSON
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var wantW []workloadEntry
	for _, w := range workloads {
		wantW = append(wantW, workloadEntry{w.name, w.why})
	}
	if !reflect.DeepEqual(file.Workloads, wantW) {
		t.Errorf("workloads differ: %v", file.Workloads)
	}
	var gotE []metricDef
	for _, m := range file.EndToEnd {
		gotE = append(gotE, m.metricDef)
		if m.Bound < boundFloor[m.Name] || m.Bound > maxBound {
			t.Errorf("%s bound %v", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(gotE, endToEnd) {
		t.Errorf("end_to_end differs: %v", gotE)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs")
	}
}
