package experiments

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/stats"
)

// §4.6 — configuration and orchestration effort. The paper counts the
// lines of Python needed to configure each evaluation (252 lines for the
// whole clock-sync study, 195 of them app command generation; the reusable
// topology module is 195 lines). The Go analog counts, per case study, the
// functions that declare its config.System and instantiate it under each
// cell's Choices, and, as shared modules, the topology constructors and
// the config package that turns any declared system into simulators.

// ConfigEffortRow is one artifact's size.
type ConfigEffortRow struct {
	Artifact string
	// File is the file or package counted; Funcs, when set, narrows the
	// count to those functions.
	File   string
	Funcs  []string
	Lines  int
	Shared bool // reusable across experiments
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
		file := row.File
		if len(row.Funcs) > 0 {
			file += ": " + strings.Join(row.Funcs, ", ")
		}
		t.Row(row.Artifact, file, row.Lines, shared)
	}
	var b strings.Builder
	b.WriteString("Config & orchestration effort (paper: clock-sync config = 252 lines of\n")
	b.WriteString("Python, 195 of them app-command generation; shared topology module = 195 lines)\n")
	b.WriteString(t.String())
	return b.String()
}

// countLines counts the non-blank, non-comment lines of a Go file — only
// those inside the named functions (or methods) when funcs is non-empty.
func countLines(path string, funcs []string) (int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, raw, 0)
	if err != nil {
		return 0, err
	}
	lines := strings.Split(string(raw), "\n")
	if len(funcs) > 0 {
		var in []string
		found := 0
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && slices.Contains(funcs, fd.Name.Name) {
				in = append(in, lines[fset.Position(fd.Pos()).Line-1:fset.Position(fd.End()).Line]...)
				found++
			}
		}
		if found != len(funcs) {
			return 0, fmt.Errorf("found %d of the functions %v", found, funcs)
		}
		lines = in
	}
	n := 0
	for _, line := range lines {
		if l := strings.TrimSpace(line); l != "" && !strings.HasPrefix(l, "//") {
			n++
		}
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
	r := &ConfigEffortResult{Rows: []ConfigEffortRow{
		{Artifact: "clock-sync case study config", File: "internal/experiments/clocksync.go",
			Funcs: []string{"clockSyncSystem", "runClockSync"}},
		{Artifact: "in-network case study config", File: "internal/experiments/fig4.go",
			Funcs: []string{"kvSystem", "fig4Run"}},
		{Artifact: "DCTCP case study config", File: "internal/experiments/fig6.go",
			Funcs: []string{"fig6Run"}},
		{Artifact: "partitioning study config", File: "internal/experiments/fig9.go",
			Funcs: []string{"fig9System", "fig9Run"}},
		{Artifact: "shared topology module", File: "internal/netsim/builders.go", Shared: true},
		{Artifact: "shared instantiation module", File: "internal/config", Shared: true},
	}}
	for i, row := range r.Rows {
		paths := []string{filepath.Join(root, row.File)}
		if !strings.HasSuffix(row.File, ".go") { // a package: its non-test files
			all, _ := filepath.Glob(filepath.Join(root, row.File, "*.go"))
			paths = slices.DeleteFunc(all, func(p string) bool { return strings.HasSuffix(p, "_test.go") })
		}
		for _, path := range paths {
			n, err := countLines(path, row.Funcs)
			if err != nil {
				return nil, fmt.Errorf("configeffort: %s: %w", row.File, err)
			}
			r.Rows[i].Lines += n
		}
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
