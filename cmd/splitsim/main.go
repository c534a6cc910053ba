// Command splitsim runs the paper's evaluation experiments and prints
// their tables/series. It is the orchestration entry point a user drives:
//
//	splitsim list
//	splitsim run fig4 [-scale 1.0] [-seed 42]
//	splitsim run placement [-placement ac]
//	splitsim run all  [-scale 0.1]
//	splitsim plan fig8 [-placement auto]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/orch"
	"repro/internal/sim"
)

type runner func(opts experiments.Options) (string, error)

func catalog() map[string]runner {
	return map[string]runner{
		"table1": func(experiments.Options) (string, error) {
			return experiments.Table1(), nil
		},
		"fig4": func(o experiments.Options) (string, error) {
			return experiments.Fig4(o).String(), nil
		},
		"fig5": func(o experiments.Options) (string, error) {
			return experiments.Fig5(o).String(), nil
		},
		"fig6": func(o experiments.Options) (string, error) {
			return experiments.Fig6(o).String(), nil
		},
		"clocksync": func(o experiments.Options) (string, error) {
			return experiments.ClockSync(o).String(), nil
		},
		"fig7": func(o experiments.Options) (string, error) {
			return experiments.Fig7(o).String(), nil
		},
		"fig8": func(o experiments.Options) (string, error) {
			return experiments.Fig8(o).String(), nil
		},
		"fig9": func(o experiments.Options) (string, error) {
			return experiments.Fig9(o).String(), nil
		},
		"fig10": func(o experiments.Options) (string, error) {
			return experiments.Fig10(o).String(), nil
		},
		"placement": func(o experiments.Options) (string, error) {
			r, err := experiments.PlacementStudy(o)
			if err != nil {
				return "", err
			}
			return r.String(), nil
		},
		"scale": func(o experiments.Options) (string, error) {
			return experiments.Scale(o).String(), nil
		},
		"flowsim": func(o experiments.Options) (string, error) {
			r, err := experiments.Flowsim(o)
			if err != nil {
				return "", err
			}
			return r.String(), nil
		},
		"scaleout": func(o experiments.Options) (string, error) {
			r, err := experiments.ScaleOut(o)
			if err != nil {
				return "", err
			}
			return r.String(), nil
		},
		"warmstart": func(o experiments.Options) (string, error) {
			r, err := experiments.WarmStart(o)
			if err != nil {
				return "", err
			}
			return r.String(), nil
		},
		"configeffort": func(experiments.Options) (string, error) {
			r, err := experiments.ConfigEffort(".")
			if err != nil {
				return "", err
			}
			return r.String(), nil
		},
		"ablations": func(o experiments.Options) (string, error) {
			return experiments.TrunkAblation(o).String() + "\n" +
				experiments.SyncQuantumAblation(o).String(), nil
		},
		"profoverhead": func(o experiments.Options) (string, error) {
			return experiments.ProfilerOverhead(o).String(), nil
		},
	}
}

func names() []string {
	var out []string
	for name := range catalog() {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// placementsFor maps each experiment to the -placement values it accepts.
// Experiments absent from the map reject the flag.
func placementsFor() map[string][]string {
	return map[string][]string{
		"placement": experiments.PlacementNames(),
		"fig7":      {"s", "percomp", "auto"},
		"fig8":      {"s", "percomp", "auto"},
	}
}

// plannable lists the experiments `splitsim plan` can render.
func plannable() []string { return []string{"fig7", "fig8", "placement"} }

// checkPlacement validates a -placement value against an experiment.
func checkPlacement(exp, placement string) error {
	if placement == "" {
		return nil
	}
	allowed, ok := placementsFor()[exp]
	if !ok {
		return fmt.Errorf("experiment %q does not take -placement", exp)
	}
	for _, a := range allowed {
		if a == placement {
			return nil
		}
	}
	return fmt.Errorf("experiment %q accepts -placement %s, not %q",
		exp, strings.Join(allowed, "|"), placement)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  splitsim list                      list available experiments
  splitsim run <name|all> [flags]    run an experiment
  splitsim plan <name> [flags]       print an experiment's execution plan

flags for run and plan:
  -scale f       duration/topology scale (default 1.0 = paper scale)
  -seed n        random seed (default 42)
  -placement p   execution placement (placement: %s; fig7/fig8: s|percomp|auto)
  -optimistic[=K]  speculate K lookahead windows past the committed horizon (placed runs; bare flag = default depth)
  -checkpoint-at us     warmup horizon in microseconds for checkpointing experiments (warmstart)
  -checkpoint-file f    write the captured checkpoint to f
  -restore-file f       resume from a checkpoint file instead of simulating the warmup
  -hosts n       target endpoint count for scale/flowsim (e.g. -hosts 1000000; 0 = scale-derived)
  -bg t          background-traffic tier for scale/flowsim: "flow" = flow-level fluid tier

experiments: %v
plannable: %v
`, strings.Join(experiments.PlacementNames(), "|"), names(), plannable())
	os.Exit(2)
}

// parseOpts reads the shared run/plan flags from args.
func parseOpts(cmd string, args []string) experiments.Options {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "duration/topology scale")
	seed := fs.Uint64("seed", 42, "random seed")
	placement := fs.String("placement", "", "execution placement")
	var optimistic optimisticFlag
	fs.Var(&optimistic, "optimistic", "optimistic executor for placed runs; =K sets speculation depth")
	ckAt := fs.Float64("checkpoint-at", 0, "warmup horizon in microseconds (checkpointing experiments)")
	ckFile := fs.String("checkpoint-file", "", "write the captured checkpoint here")
	restore := fs.String("restore-file", "", "resume from this checkpoint file")
	hosts := fs.Int("hosts", 0, "target endpoint count for the scale experiments (0 = scale-derived)")
	bg := fs.String("bg", "", "background-traffic tier for scale experiments: flow")
	_ = fs.Parse(args)
	if *bg != "" && *bg != "flow" {
		fail("-bg accepts \"flow\", not %q", *bg)
	}
	var exec orch.RunOptions
	if optimistic > 0 {
		exec = orch.RunOptions{Mode: orch.Optimistic, K: int(optimistic)}
	}
	return experiments.Options{Scale: *scale, Seed: *seed, Placement: *placement, Exec: exec,
		CheckpointAt:   sim.Time(*ckAt * float64(sim.Microsecond)),
		CheckpointFile: *ckFile, RestoreFile: *restore,
		Hosts: *hosts, Bg: *bg}
}

// optimisticFlag implements -optimistic[=K] as the speculation ceiling, 0
// meaning off: bare -optimistic enables the optimistic executor at its
// default ceiling, -optimistic=K (K > 0) sets it explicitly,
// -optimistic=false disables it.
type optimisticFlag int

func (f *optimisticFlag) String() string { return strconv.Itoa(int(*f)) }

func (f *optimisticFlag) IsBoolFlag() bool { return true }

func (f *optimisticFlag) Set(s string) error {
	switch s {
	case "", "true":
		*f = orch.DefaultSpecWindows
		return nil
	case "false":
		*f = 0
		return nil
	}
	k, err := strconv.Atoi(s)
	if err != nil || k < 1 {
		return fmt.Errorf("want true, false, or a window count >= 1, got %q", s)
	}
	*f = optimisticFlag(k)
	return nil
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		for _, n := range names() {
			fmt.Println(n)
		}
	case "run":
		if len(os.Args) < 3 {
			usage()
		}
		name := os.Args[2]
		opts := parseOpts("run", os.Args[3:])
		cat := catalog()
		run := func(n string) {
			r, ok := cat[n]
			if !ok {
				fail("unknown experiment %q; try: %v", n, names())
			}
			if err := checkPlacement(n, opts.Placement); err != nil {
				fail("%v", err)
			}
			out, err := r(opts)
			if err != nil {
				fail("%s: %v", n, err)
			}
			fmt.Println(out)
		}
		if name == "all" {
			if opts.Placement != "" {
				fail("-placement applies to a single experiment, not all")
			}
			for _, n := range names() {
				run(n)
			}
			return
		}
		run(name)
	case "plan":
		if len(os.Args) < 3 {
			usage()
		}
		name := os.Args[2]
		opts := parseOpts("plan", os.Args[3:])
		if err := checkPlacement(name, opts.Placement); err != nil {
			fail("%v", err)
		}
		out, err := experiments.PlanFor(name, opts)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(out)
	default:
		usage()
	}
}
