package experiments

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/stats"
)

// §4.6 — configuration and orchestration effort. The paper counts the
// lines of Python needed to configure each evaluation (252 lines for the
// whole clock-sync study, 195 of them app command generation; the reusable
// topology module is 195 lines). The Go analog: this harness counts the
// experiment-configuration code in this repository and the reusable
// topology/instantiation modules it shares, demonstrating the same
// separation of system configuration from simulator choices.

// ConfigEffortRow is one artifact's size.
type ConfigEffortRow struct {
	Artifact string
	File     string
	Lines    int
	Shared   bool // reusable across experiments
}

// ConfigEffortResult lists measured configuration sizes.
type ConfigEffortResult struct {
	Rows []ConfigEffortRow
}

// String renders the comparison with the paper's numbers.
func (r *ConfigEffortResult) String() string {
	t := stats.NewTable("artifact", "file", "lines", "reusable")
	for _, row := range r.Rows {
		shared := ""
		if row.Shared {
			shared = "yes"
		}
		t.Row(row.Artifact, row.File, row.Lines, shared)
	}
	var b strings.Builder
	b.WriteString("Config & orchestration effort (paper: clock-sync config = 252 lines of\n")
	b.WriteString("Python, 195 of them app-command generation; shared topology module = 195 lines)\n")
	b.WriteString(t.String())
	return b.String()
}

// countLines counts non-blank, non-comment lines of a Go file.
func countLines(path string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if _, err := parser.ParseFile(token.NewFileSet(), path, raw, 0); err != nil {
		return 0, err
	}
	n := 0
	for _, line := range strings.Split(string(raw), "\n") {
		l := strings.TrimSpace(line)
		if l == "" || strings.HasPrefix(l, "//") {
			continue
		}
		n++
	}
	return n, nil
}

// ConfigEffort measures this repository's experiment-configuration sizes.
// dir is the repository root or any directory below it: the files are
// found relative to the nearest enclosing directory holding go.mod.
func ConfigEffort(dir string) (*ConfigEffortResult, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	entries := []struct {
		artifact string
		rel      string
		shared   bool
	}{
		{"clock-sync case study config", "internal/experiments/clocksync.go", false},
		{"in-network case study config", "internal/experiments/fig4.go", false},
		{"DCTCP case study config", "internal/experiments/fig6.go", false},
		{"partitioning study config", "internal/experiments/fig9.go", false},
		{"shared scenario module", "internal/experiments/scenario.go", true},
		{"shared topology module", "internal/netsim/builders.go", true},
		{"shared instantiation module", "internal/instantiate/instantiate.go", true},
	}
	r := &ConfigEffortResult{}
	for _, e := range entries {
		path := filepath.Join(root, e.rel)
		n, err := countLines(path)
		if err != nil {
			return nil, fmt.Errorf("configeffort: %s: %w", e.rel, err)
		}
		r.Rows = append(r.Rows, ConfigEffortRow{
			Artifact: e.artifact, File: e.rel, Lines: n, Shared: e.shared,
		})
	}
	return r, nil
}

// moduleRoot walks up from dir to the nearest directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("configeffort: no go.mod at or above %s", abs)
		}
	}
}
