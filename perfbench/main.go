// Command perfbench is the ctxres benchmark. It runs one named workload
// against in-process servers built through the public constructors,
// offers load open-loop at the fixed rates of workloads.json, checks the
// program's outputs, and prints every metric with its unit and sample
// count, ending with one JSON line:
//
//	go run . --workload rfid-resolve --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no probes installed;
// --trace 1 installs the probes and prints the per-layer metrics. All
// scratch files live under .bench_build/perfbench in the working
// directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported value.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// report is a run's outcome.
type report struct {
	attempted, failed int
	metrics           []metric
}

func (r *report) add(name string, v float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name, v, unit, samples})
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name (see workloads.json)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured seconds, split between the nominal phase and the rate ladder")
	trace := fs.Int("trace", 0, "1 installs the probes and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	specs, err := loadSpecs()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, ok := specs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(specs))
		for n := range specs {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", names)
		return 2
	}
	nominal, step := w.phases(*seconds)
	in, err := generate(w, *seed, nominal, step)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: generate:", err)
		return 1
	}
	base := filepath.Join(".bench_build", "perfbench")
	workdir := filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workdir)

	var rep *report
	if *trace == 1 {
		spans := filepath.Join(base, fmt.Sprintf("spans-%s-%d.jsonl", w.Name, *seed))
		rep, err = traced(w, in, workdir, nominal, spans, stdout)
	} else {
		rep, err = measure(w, in, workdir, nominal, step, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	return printReport(stdout, w.Name, rep)
}

func printReport(out io.Writer, name string, rep *report) int {
	fmt.Fprintf(out, "%-34s %14s %-6s %s\n", name, "value", "unit", "samples")
	metrics := make(map[string]map[string]any, len(rep.metrics))
	for _, m := range rep.metrics {
		fmt.Fprintf(out, "%-34s %14.4f %-6s %d\n", m.Name, m.Value, m.Unit, m.Samples)
		metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}
