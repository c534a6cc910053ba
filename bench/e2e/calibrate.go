package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchmarkFile is BENCHMARK.json at the root of the repository, which
// -calibrate regenerates from the tables in this package plus the bounds it
// measures. The working directory is bench/e2e.
const benchmarkFile = "../../BENCHMARK.json"

// runSeconds is how long the driver lets one run measure. A memsplit_par
// child's wall time varies by 10 % from one child to the next, so the median
// needs about twenty of them to repeat to a few per cent; 158 runs of
// seventeen seconds still fit the driver's 3420.
const runSeconds = 15

// boundFloor is the regression bound the issue fixed for each end-to-end
// metric. BENCHMARK.json holds one bound per metric, not per workload, so
// wall and CPU start at the 15 % of the placed workloads (the sequential ones
// were to have 10 %). setup_s sits at the largest bound the schema allows, as
// the benchmark contract asks; the driver does not judge it by its spread.
var boundFloor = map[string]float64{
	"wall_s_per_sim_s": 0.15,
	"cpu_s_per_sim_s":  0.15,
	"setup_s":          maxBound,
	"peak_rss_mb":      0.10,
	"mallocs_k":        0.02,
}

const (
	maxBound = 0.25
	// headroom is how many times the widest measured spread a bound must be:
	// the benchmark contract wants every spread under a third of its bound
	// (the issue said twice the spread; the contract is what the driver
	// enforces). Calibration widens a bound to this and never narrows one;
	// the table behind every widening is in the README.
	headroom = 3
)

type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkJSON is the layout of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []boundedMetric `json:"end_to_end"`
	PerLayer   []metricDef     `json:"per_layer"`
}

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(v, n=4) does
// (the exclusive method), which is what the driver judges spreads by.
func quartiles(v []float64) (q [3]float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	const n = 4
	m := len(s) + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q
}

// calibrate measures every selected workload on sets consecutive seeds the
// way the driver does, prints median, quartile distance and spread for each
// (workload, metric), and writes the resulting bounds into BENCHMARK.json.
func (h *harness) calibrate(selected []*workload, sets int, seed uint64, seconds float64) error {
	if sets < 2 {
		return fmt.Errorf("-calibrate needs at least 2 sets")
	}
	if seconds == 0 {
		seconds = runSeconds
	}
	fmt.Println("machine:", fingerprint())
	widest := map[string]float64{}
	fmt.Printf("| workload | metric | median | IQR | IQR/median |\n|---|---|---|---|---|\n")
	for _, w := range selected {
		vals := map[string][]float64{}
		for i := 0; i < sets; i++ {
			s := h.measure(w, seed+uint64(i), seconds, 0)
			if s.failed > 0 {
				return fmt.Errorf("%s seed %d: %v", w.name, s.seed, s.failures)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d, %d runs:", w.name, s.seed, s.runs)
			for _, d := range endToEnd {
				vals[d.Name] = append(vals[d.Name], s.e2e[d.Name])
				fmt.Fprintf(os.Stderr, " %s=%.6g", d.Name, s.e2e[d.Name])
			}
			fmt.Fprintln(os.Stderr)
		}
		for _, d := range endToEnd {
			q := quartiles(vals[d.Name])
			spread := (q[2] - q[0]) / q[1]
			fmt.Printf("| %s | %s | %.6g %s | %.4g | %.4f |\n", w.name, d.Name, q[1], d.Unit, q[2]-q[0], spread)
			// The driver does not judge setup_s by its spread.
			if d.Name != "setup_s" && spread > widest[d.Name] {
				widest[d.Name] = spread
			}
		}
	}
	fmt.Println("machine:", fingerprint())

	// A bound already in the file was justified by an earlier calibration:
	// keep it unless this one measured worse.
	var old benchmarkJSON
	if data, err := os.ReadFile(benchmarkFile); err == nil {
		if err := json.Unmarshal(data, &old); err != nil {
			return fmt.Errorf("%s: %w", benchmarkFile, err)
		}
	}
	file := benchmarkJSON{
		Command:    []string{"bash", "bench/e2e/run.sh"},
		Paths:      []string{"bench/e2e"},
		RunSeconds: runSeconds,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		file.Workloads = append(file.Workloads, workloadEntry{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := math.Max(boundFloor[d.Name], math.Ceil(headroom*widest[d.Name]*100)/100)
		for _, m := range old.EndToEnd {
			if m.Name == d.Name {
				bound = math.Max(bound, m.Bound)
			}
		}
		if bound > maxBound {
			fmt.Printf("WARNING: %s spreads %.4f; %d times that exceeds the largest bound allowed\n", d.Name, widest[d.Name], headroom)
			bound = maxBound
		}
		fmt.Printf("bound %-18s %.2f (widest spread %.4f)\n", d.Name, bound, widest[d.Name])
		file.EndToEnd = append(file.EndToEnd, boundedMetric{d, bound})
	}
	if len(selected) != len(workloads) {
		fmt.Println("not every workload was measured: BENCHMARK.json left as it is")
		return nil
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(benchmarkFile, append(data, '\n'), 0o644)
}
