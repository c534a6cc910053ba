package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestCatalogCoversEveryFigure(t *testing.T) {
	cat := catalog()
	for _, want := range []string{
		"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"clocksync", "configeffort", "placement", "scale", "scaleout",
		"ablations", "profoverhead",
	} {
		if _, ok := cat[want]; !ok {
			t.Errorf("catalog missing %q", want)
		}
	}
	if len(names()) != len(cat) {
		t.Error("names() incomplete")
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
		out, err := catalog()[name](opts)
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
	cases := []struct {
		exp, placement string
		ok             bool
	}{
		{"placement", "", true},
		{"placement", "ac", true},
		{"placement", "auto", true},
		{"placement", "percomp", false},
		{"fig7", "percomp", true},
		{"fig8", "s", true},
		{"fig7", "cr2", false},
		{"fig4", "s", false},
		{"fig4", "", true},
	}
	for _, c := range cases {
		err := checkPlacement(c.exp, c.placement)
		if (err == nil) != c.ok {
			t.Errorf("checkPlacement(%q, %q) = %v, want ok=%v",
				c.exp, c.placement, err, c.ok)
		}
	}
	// Every plannable and placement-taking experiment must exist in the catalog.
	cat := catalog()
	for exp := range placementsFor() {
		if _, ok := cat[exp]; !ok {
			t.Errorf("placementsFor lists unknown experiment %q", exp)
		}
	}
	for _, exp := range plannable() {
		if _, ok := cat[exp]; !ok {
			t.Errorf("plannable lists unknown experiment %q", exp)
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
	// same path here so the CLI wiring is covered without spawning a process.
	opts := experiments.Options{Scale: 0.3, Seed: 1, Placement: "s"}
	out, err := experiments.PlanFor("placement", opts)
	if err != nil {
		t.Fatalf("PlanFor(placement): %v", err)
	}
	if !strings.Contains(out, "1 groups") {
		t.Fatalf("co-located plan should have 1 group:\n%s", out)
	}
}
