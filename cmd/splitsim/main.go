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
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// names lists the experiment table's names, in table (sorted) order.
func names() []string {
	var out []string
	for _, e := range experiments.Experiments() {
		out = append(out, e.Name)
	}
	return out
}

// checkOpts validates subcommand cmd's flags against experiment exp: -bg
// names a tier, -scale is positive, -hosts is not negative, each
// experiment-specific flag (-bg, -hosts, -checkpoint-at,
// -checkpoint-file, -restore-file) reaches an experiment that reads it
// (alone or in `run all`; plan never executes), and -placement is one the
// experiment's table row accepts.
func checkOpts(cmd, exp string, o experiments.Options) error {
	unread := func(readers ...string) bool { return cmd == "plan" || exp != "all" && !slices.Contains(readers, exp) }
	switch {
	case o.Bg != "" && o.Bg != "flow":
		return fmt.Errorf("-bg accepts \"flow\", not %q", o.Bg)
	case !(o.Scale > 0):
		return fmt.Errorf("-scale must be positive, not %v", o.Scale)
	case o.Hosts < 0:
		return fmt.Errorf("-hosts must be 0 (scale-derived) or positive, not %d", o.Hosts)
	case o.Bg != "" && unread("scale"):
		return fmt.Errorf("-bg applies to `run scale` and `run all` only, not `%s %s`", cmd, exp)
	case o.Hosts != 0 && unread("scale", "flowsim"):
		return fmt.Errorf("-hosts applies to `run scale`, `run flowsim` and `run all` only, not `%s %s`", cmd, exp)
	case (o.CheckpointAt != 0 || o.CheckpointFile != "" || o.RestoreFile != "") && unread("warmstart"):
		return fmt.Errorf("-checkpoint-at, -checkpoint-file and -restore-file apply to `run warmstart` and `run all` only, not `%s %s`", cmd, exp)
	case o.Placement == "":
		return nil
	}
	e, _ := experiments.Lookup(exp)
	if e.Placements == nil {
		return fmt.Errorf("experiment %q does not take -placement", exp)
	}
	if !slices.Contains(e.Placements, o.Placement) {
		return fmt.Errorf("experiment %q accepts -placement %s, not %q",
			exp, strings.Join(e.Placements, "|"), o.Placement)
	}
	return nil
}

func usage() {
	var places, plannable []string
	for _, e := range experiments.Experiments() {
		if e.Placements != nil {
			places = append(places, e.Name+": "+strings.Join(e.Placements, "|"))
		}
		if e.Plannable() {
			plannable = append(plannable, e.Name)
		}
	}
	fmt.Fprintf(os.Stderr, `usage:
  splitsim list                      list available experiments
  splitsim run <name|all> [flags]    run an experiment
  splitsim plan <name> [flags]       print an experiment's execution plan

flags for run and plan:
  -scale f       duration/topology scale (default 1.0 = paper scale)
  -seed n        random seed (default 42)
  -placement p   execution placement (%s)
  -checkpoint-at us     warmup horizon in microseconds (run warmstart/all only)
  -checkpoint-file f    write the captured checkpoint to f (run warmstart/all only)
  -restore-file f       resume from a checkpoint file instead of simulating the warmup (run warmstart/all only)
  -hosts n       target endpoint count (run scale/flowsim/all only; e.g. -hosts 1000000; 0 = scale-derived)
  -bg t          background-traffic tier: "flow" = flow-level fluid tier (run scale/all only)

experiments: %v
plannable: %v
`, strings.Join(places, "; "), names(), plannable)
	os.Exit(2)
}

// parseOpts reads the shared run/plan flags from args.
func parseOpts(cmd string, args []string) experiments.Options {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "duration/topology scale")
	seed := fs.Uint64("seed", 42, "random seed")
	placement := fs.String("placement", "", "execution placement")
	ckAt := fs.Float64("checkpoint-at", 0, "warmup horizon in microseconds (checkpointing experiments)")
	ckFile := fs.String("checkpoint-file", "", "write the captured checkpoint here")
	restore := fs.String("restore-file", "", "resume from this checkpoint file")
	hosts := fs.Int("hosts", 0, "target endpoint count for the scale experiments (0 = scale-derived)")
	bg := fs.String("bg", "", "background-traffic tier for scale experiments: flow")
	_ = fs.Parse(args)
	return experiments.Options{Scale: *scale, Seed: *seed, Placement: *placement,
		CheckpointAt:   sim.Time(*ckAt * float64(sim.Microsecond)),
		CheckpointFile: *ckFile, RestoreFile: *restore,
		Hosts: *hosts, Bg: *bg}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	switch {
	case cmd == "list":
		for _, n := range names() {
			fmt.Println(n)
		}
		return
	case (cmd != "run" && cmd != "plan") || len(os.Args) < 3:
		usage()
	}
	name, opts := os.Args[2], parseOpts(cmd, os.Args[3:])
	if err := checkOpts(cmd, name, opts); err != nil {
		fail("%v", err)
	}
	if cmd == "plan" {
		out, err := experiments.PlanFor(name, opts)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(out)
		return
	}
	exps := experiments.Experiments()
	if name != "all" {
		e, ok := experiments.Lookup(name)
		if !ok {
			fail("unknown experiment %q; try: %v", name, names())
		}
		exps = []experiments.Experiment{e}
	}
	// One failing experiment does not stop the rest of `run all`.
	failed := false
	for _, e := range exps {
		out, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			failed = true
			continue
		}
		fmt.Println(out)
	}
	if failed {
		os.Exit(1)
	}
}
