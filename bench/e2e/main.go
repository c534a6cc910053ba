// Command e2e is the repository's end-to-end benchmark: measured host
// wall-time per simulated second on seven paper workloads, with per-layer
// metrics taken from outside each layer. See README.md.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// golden holds the digest of each workload's simulated results for the
// development seed 42 and the held-out seed 7: workload -> seed -> digest.
//
//go:embed golden.json
var goldenJSON []byte

const (
	goldenFile = "golden.json"
	// minRuns untraced runs back every median, however short --seconds is.
	minRuns = 3
	// runLimit keeps one workload's runs inside the driver's 180 s.
	runLimit = 170 * time.Second
)

var goldenSeeds = []uint64{42, 7}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and end with its result line (default: all seven)")
		seed      = flag.Uint64("seed", 42, "seed for every builder")
		seconds   = flag.Float64("seconds", 0, "keep measuring for this long (default: the minimum number of runs)")
		trace     = flag.Int("trace", -1, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from traced runs; default both")
		calibrate = flag.Int("calibrate", 0, "run this many sets on consecutive seeds, print the noise table and write the bounds into BENCHMARK.json")
		update    = flag.Bool("update-golden", false, "regenerate golden.json from traced runs that agree with their sequential reference")
		outDir    = flag.String("out", "out", "directory for Chrome-trace files of traced runs")
		child     = flag.Bool("child", false, "internal: build and run the workload once in this process")
	)
	flag.Parse()

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		selected = []*workload{w}
	}
	h := &harness{outDir: *outDir}

	switch {
	case *child:
		if *name == "" {
			fatalf("-child needs -workload")
		}
		rep := runChild(selected[0], *seed, 1, *trace == 1, *outDir)
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatalf("%v", err)
		}
	case *update:
		if err := h.updateGolden(selected); err != nil {
			fatalf("%v", err)
		}
	case *calibrate > 0:
		if err := h.calibrate(selected, *calibrate, *seed, *seconds); err != nil {
			fatalf("%v", err)
		}
	default:
		if err := json.Unmarshal(goldenJSON, &h.golden); err != nil {
			fatalf("golden.json: %v", err)
		}
		failed := 0
		for _, w := range selected {
			s := h.measure(w, *seed, *seconds, *trace)
			s.print()
			failed += s.failed
			if *name != "" {
				s.resultLine(*trace)
			}
		}
		// The driver reads a failure from the result line; a person running
		// all seven gets it as the exit code.
		if *name == "" && failed > 0 {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench/e2e: "+format+"\n", args...)
	os.Exit(2)
}

// harness runs children one at a time and checks what they report.
type harness struct {
	outDir string
	golden map[string]map[string]string
}

// spawn runs one child process and decodes its report. The parent sleeps in
// Wait meanwhile, so the child has both cores.
func (h *harness) spawn(ctx context.Context, w *workload, seed uint64, traced bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-trace", t, "-out", h.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child: %w", w.name, err)
	}
	rep := &report{}
	if err := json.Unmarshal(out, rep); err != nil {
		return nil, fmt.Errorf("%s child: %w", w.name, err)
	}
	return rep, nil
}

// summary is one workload's outcome over all the runs of an invocation.
type summary struct {
	w        *workload
	seed     uint64
	runs     int                // untraced runs behind the end-to-end medians
	e2e      map[string]float64 // median over the untraced runs
	spread   map[string]float64 // (max-min)/median over the untraced runs
	layer    map[string]float64 // median over the traced runs; nil without any
	digest   string
	attempts int
	failed   int
	failures []string
}

func (s *summary) fail(what string) {
	s.failed++
	s.failures = append(s.failures, what)
}

// measure runs w until seconds have passed: untraced runs for the end-to-end
// metrics (at least minRuns), then traced runs for the per-layer ones (at
// least one). With trace 1 the untraced runs, which the tracing overhead is
// measured against, get the first half of the time.
func (h *harness) measure(w *workload, seed uint64, seconds float64, trace int) *summary {
	// Whatever --seconds says, the runs end inside the driver's limit: past
	// it the child is killed and counted as failed.
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	s := &summary{w: w, seed: seed}
	start := time.Now()
	runUntil := func(traced bool, atLeast int, until time.Duration) (reps []*report) {
		for i := 0; (i < atLeast || time.Since(start) < until) && ctx.Err() == nil; i++ {
			rep, err := h.spawn(ctx, w, seed, traced)
			s.attempts++
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench/e2e:", err)
				s.fail("child failed")
				continue
			}
			h.verify(s, rep)
			reps = append(reps, rep)
		}
		return reps
	}
	budget := time.Duration(seconds * float64(time.Second))
	untracedUntil := budget
	if trace == 1 {
		untracedUntil = budget / 2
	}
	untraced := runUntil(false, minRuns, untracedUntil)
	var traced []*report
	if trace != 0 {
		traced = runUntil(true, 1, budget)
	}

	s.runs = len(untraced)
	s.e2e, s.spread = map[string]float64{}, map[string]float64{}
	for _, d := range endToEnd {
		vals := valuesOf(untraced, func(r *report) float64 { return r.e2e(d.Name) })
		s.e2e[d.Name] = median(vals)
		if len(vals) > 0 && s.e2e[d.Name] > 0 {
			s.spread[d.Name] = (slices.Max(vals) - slices.Min(vals)) / s.e2e[d.Name]
		}
	}
	if len(traced) > 0 {
		s.layer = map[string]float64{}
		for _, d := range perLayer {
			s.layer[d.Name] = median(valuesOf(traced, func(r *report) float64 { return r.Layer[d.Name] }))
		}
		if base := s.e2e["wall_s_per_sim_s"]; base > 0 {
			tw := median(valuesOf(traced, func(r *report) float64 { return r.e2e("wall_s_per_sim_s") }))
			s.layer["trace.overhead_share"] = tw/base - 1
		}
	}
	return s
}

func valuesOf(reps []*report, f func(*report) float64) []float64 {
	vals := make([]float64, len(reps))
	for i, r := range reps {
		vals[i] = f(r)
	}
	return vals
}

// e2e derives an end-to-end metric from one child's raw measurements.
func (r *report) e2e(name string) float64 {
	switch name {
	case "wall_s_per_sim_s":
		return r.RunWallS / r.SimS
	case "cpu_s_per_sim_s":
		return r.RunCPUS / r.SimS
	case "setup_s":
		return r.SetupS
	case "peak_rss_mb":
		return r.PeakRSSMB
	case "mallocs_k":
		return r.MallocsK
	}
	panic("bench/e2e: no end-to-end metric " + name)
}

// verify counts a report's own checks and adds the parent's: the digest
// matches the committed golden one where there is one (seeds 42 and 7), and
// every run of the invocation folds to the same digest.
func (h *harness) verify(s *summary, rep *report) {
	s.attempts += rep.Checks
	for _, f := range rep.Failures {
		s.fail(f)
	}
	if want, ok := h.golden[rep.Workload][strconv.FormatUint(rep.Seed, 10)]; ok {
		s.attempts++
		if rep.Digest != want {
			s.fail(fmt.Sprintf("digest %s, golden %s", rep.Digest, want))
		}
	}
	if s.digest == "" {
		s.digest = rep.Digest
	}
	s.attempts++
	if rep.Digest != s.digest {
		s.fail(fmt.Sprintf("digest %s differs from the first run's %s", rep.Digest, s.digest))
	}
}

// print lists every metric by name with its unit.
func (s *summary) print() {
	fmt.Printf("%s seed=%d digest=%s checks=%d failed=%d\n", s.w.name, s.seed, s.digest, s.attempts, s.failed)
	for _, f := range s.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	if s.runs > 0 {
		for _, d := range endToEnd {
			fmt.Printf("  %-32s %14.6g %-6s median of %d untraced runs, spread %.3f\n",
				d.Name, s.e2e[d.Name], d.Unit, s.runs, s.spread[d.Name])
		}
	}
	if s.layer != nil {
		for _, d := range perLayer {
			fmt.Printf("  %-32s %14.6g %s\n", d.Name, s.layer[d.Name], d.Unit)
		}
	}
	fmt.Printf("  %-32s %14.6g %-6s %d of %d checks failed over all runs\n",
		"failed_share", float64(s.failed)/float64(s.attempts), "ratio", s.failed, s.attempts)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine prints the one JSON object the driver reads last.
func (s *summary) resultLine(trace int) {
	metrics := map[string]metricValue{}
	if trace != 1 {
		for _, d := range endToEnd {
			metrics[d.Name] = metricValue{s.e2e[d.Name], d.Unit}
		}
	}
	if trace != 0 {
		for _, d := range perLayer {
			metrics[d.Name] = metricValue{s.layer[d.Name], d.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": s.failed == 0, "attempted": s.attempts, "failed": s.failed, "metrics": metrics,
	})
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

// updateGolden regenerates golden.json. Each digest comes from a traced run,
// which for the placed workloads and warm_sweep also checks it against the
// same build's sequential (or cold) run; any failed check aborts.
func (h *harness) updateGolden(selected []*workload) error {
	golden := map[string]map[string]string{}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return err
	}
	for _, w := range selected {
		golden[w.name] = map[string]string{}
		for _, seed := range goldenSeeds {
			rep, err := h.spawn(context.Background(), w, seed, true)
			if err != nil {
				return err
			}
			if len(rep.Failures) > 0 {
				return fmt.Errorf("%s seed %d: %s", w.name, seed, strings.Join(rep.Failures, "; "))
			}
			golden[w.name][strconv.FormatUint(seed, 10)] = rep.Digest
			fmt.Printf("%s seed=%d digest=%s\n", w.name, seed, rep.Digest)
		}
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenFile, append(data, '\n'), 0o644)
}

// fingerprint names the machine a set of numbers came from.
func fingerprint() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d go=%s ref_spin_ms=%.2f", model, runtime.NumCPU(), runtime.Version(), refSpinMs())
}
