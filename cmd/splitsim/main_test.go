package main

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestCatalogCoversEveryFigure(t *testing.T) {
	for _, want := range []string{
		"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"clocksync", "configeffort", "placement", "scale", "scaleout",
		"ablations", "profoverhead",
	} {
		if _, ok := experiments.Lookup(want); !ok {
			t.Errorf("experiment table missing %q", want)
		}
	}
	exps := experiments.Experiments()
	if len(names()) != len(exps) {
		t.Error("names() incomplete")
	}
	for _, e := range exps {
		if e.Run == nil {
			t.Errorf("%s: no runner", e.Name)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	ns := names()
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("names not sorted: %v", ns)
		}
	}
}

func TestRunnersProduceOutput(t *testing.T) {
	// Smoke-run the cheap entries through the same path the CLI uses.
	opts := experiments.Options{Scale: 0.3, Seed: 1}
	for _, name := range []string{"table1", "fig7"} {
		e, _ := experiments.Lookup(name)
		out, err := e.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(strings.ToLower(out), strings.TrimPrefix(name, "")) &&
			len(out) < 40 {
			t.Fatalf("%s output suspiciously short:\n%s", name, out)
		}
	}
}

func TestCheckPlacement(t *testing.T) {
	ok := experiments.Options{Scale: 1}
	with := func(f func(*experiments.Options)) experiments.Options {
		o := ok
		f(&o)
		return o
	}
	placed := func(p string) experiments.Options {
		return with(func(o *experiments.Options) { o.Placement = p })
	}
	cases := []struct {
		exp  string
		opts experiments.Options
		ok   bool
	}{
		{"placement", placed(""), true},
		{"placement", placed("ac"), true},
		{"placement", placed("auto"), true},
		{"placement", placed("percomp"), false},
		{"fig7", placed("percomp"), true},
		{"fig8", placed("s"), true},
		{"fig7", placed("cr2"), false},
		{"fig4", placed("s"), false},
		{"fig4", placed(""), true},
		{"all", placed("s"), false},
		{"all", placed(""), true},
		{"scale", with(func(o *experiments.Options) { o.Bg = "flow" }), true},
		{"scale", with(func(o *experiments.Options) { o.Bg = "packet" }), false},
		{"fig4", with(func(o *experiments.Options) { o.Scale = 0.1 }), true},
		{"fig4", with(func(o *experiments.Options) { o.Scale = 0 }), false},
		{"fig4", with(func(o *experiments.Options) { o.Scale = -1 }), false},
		{"scale", with(func(o *experiments.Options) { o.Hosts = 1_000_000 }), true},
		{"scale", with(func(o *experiments.Options) { o.Hosts = -5 }), false},
	}
	for _, c := range cases {
		err := checkOpts("run", c.exp, c.opts)
		if (err == nil) != c.ok {
			t.Errorf("checkOpts(%q, %+v) = %v, want ok=%v", c.exp, c.opts, err, c.ok)
		}
	}
	// Each experiment-specific flag reaches only the experiments that read
	// it, alone or in `run all`; plan reads none of them.
	for _, c := range []struct {
		cmd, exp string
		args     []string
		ok       bool
	}{
		{"run", "flowsim", []string{"-bg", "flow"}, false},
		{"run", "fig4", []string{"-hosts", "10"}, false},
		{"run", "scale", []string{"-restore-file", "x"}, false},
		{"run", "fig8", []string{"-checkpoint-file", "x"}, false},
		{"plan", "fig8", []string{"-bg", "flow"}, false},
		{"plan", "fig8", []string{"-checkpoint-at", "100"}, false},
		{"run", "scale", []string{"-bg", "flow"}, true},
		{"run", "flowsim", []string{"-hosts", "1000"}, true},
		{"run", "warmstart", []string{"-checkpoint-at", "100"}, true},
		{"run", "all", []string{"-bg", "flow"}, true},
	} {
		if err := checkOpts(c.cmd, c.exp, parseOpts(c.cmd, c.args)); (err == nil) != c.ok {
			t.Errorf("checkOpts(%q, %q, %v) = %v, want ok=%v", c.cmd, c.exp, c.args, err, c.ok)
		}
	}
	// Every experiment accepts exactly its table row's placements.
	for _, e := range experiments.Experiments() {
		for _, p := range append([]string{"s", "percomp", "auto", "ac", "cr2", "rs"}, e.Placements...) {
			accepted := slices.Contains(e.Placements, p)
			if err := checkOpts("run", e.Name, placed(p)); (err == nil) != accepted {
				t.Errorf("checkOpts(%q, -placement %s) = %v, want ok=%v", e.Name, p, err, accepted)
			}
		}
	}
}

func TestParseOpts(t *testing.T) {
	o := parseOpts("run", []string{"-scale", "0.5", "-seed", "7", "-placement", "auto"})
	if o.Scale != 0.5 || o.Seed != 7 || o.Placement != "auto" {
		t.Fatalf("parseOpts mismatch: %+v", o)
	}
	o = parseOpts("plan", nil)
	if o.Scale != 1.0 || o.Seed != 42 || o.Placement != "" {
		t.Fatalf("parseOpts defaults mismatch: %+v", o)
	}
}

func TestPlanSubcommandOutput(t *testing.T) {
	// The plan subcommand goes through experiments.PlanFor; exercise the
	// same path here for every plannable row of the experiment table, so
	// the CLI wiring is covered without spawning a process.
	opts := experiments.Options{Scale: 0.3, Seed: 1, Placement: "s"}
	planned := 0
	for _, e := range experiments.Experiments() {
		if !e.Plannable() {
			continue
		}
		planned++
		out, err := experiments.PlanFor(e.Name, opts)
		if err != nil {
			t.Fatalf("PlanFor(%s): %v", e.Name, err)
		}
		if !strings.Contains(out, "1 groups") {
			t.Fatalf("%s: co-located plan should have 1 group:\n%s", e.Name, out)
		}
	}
	if planned == 0 {
		t.Fatal("no plannable experiment in the table")
	}
}
