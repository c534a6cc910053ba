// Command wtpg is the profiler post-processing tool: it ingests the
// periodic adapter logs a profiled SplitSim run emits, drops warm-up and
// cool-down samples, and renders the wait-time-profile graph — as Graphviz
// DOT or as text — together with the global simulation speed and
// per-simulator efficiency.
//
//	wtpg [-warm 2] [-cool 2] [-format dot|text] [logfile]
//
// With no file argument it reads standard input.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/profiler"
)

func main() {
	warm := flag.Int("warm", 2, "warm-up samples to drop per simulator")
	cool := flag.Int("cool", 2, "cool-down samples to drop per simulator")
	format := flag.String("format", "text", "output format: text or dot")
	thresh := flag.Float64("bottleneck", 0.15, "wait fraction below which a node is flagged")
	flag.Parse()

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	samples, _, err := profiler.ParseLog(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parse: %v\n", err)
		os.Exit(1)
	}
	a, err := profiler.Analyze(samples, *warm, *cool)
	if err != nil {
		fmt.Fprintf(os.Stderr, "analyze: %v\n", err)
		os.Exit(1)
	}
	g := profiler.BuildWTPG(a)
	switch *format {
	case "dot":
		fmt.Print(g.DOT())
	case "text":
		fmt.Print(a.String())
		fmt.Print(g.Render())
		if b := a.Bottlenecks(*thresh); len(b) > 0 {
			fmt.Printf("probable bottlenecks: %v\n", b)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q\n", *format)
		os.Exit(2)
	}
}
