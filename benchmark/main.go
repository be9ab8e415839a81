// Command northup-benchmark measures the Northup reproduction end to end on
// both of its clocks: the host time the simulator takes (throughput, op
// latency percentiles, allocation, peak RSS, set-up time) and the virtual
// time of the machine it models. It drives the system only through the
// public facade, package repro/northup, times every facade call from
// outside, and checks every output.
//
// Run every workload once (from this directory):
//
//	go run . -seed 1
//
// One workload for a fixed time, as the repository's BENCHMARK.json does
// (from the repository root; the script builds into .bench_build/):
//
//	bash benchmark/run.sh --workload serve-open --seed 3 --seconds 10 --trace 0
//
// A traced run (-trace 1, or -trace DIR) adds the per-layer metrics and
// writes spans.json and one CPU profile per workload. -compare applies the
// paired-run rule to two sets of saved results; -summarize prints their
// medians and quartiles. See README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// defaultTraceDir is where -trace 1 writes its output.
var defaultTraceDir = filepath.Join(".bench_build", "trace")

func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("northup-benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sel := fs.String("workload", "all", "all, or a comma-separated list of: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed every input, scenario and fault plan derives from")
	seconds := fs.Float64("seconds", 0, "measure each workload at least this long (0: its minimum op count only)")
	traceArg := fs.String("trace", "0", "0: untraced; 1: traced, output under "+defaultTraceDir+"; DIR: traced, output under DIR")
	out := fs.String("out", "", "append one JSON record per workload run to this file")
	parent := fs.String("compare", "", "compare this parent record file with the change record files given as arguments")
	summarize := fs.Bool("summarize", false, "print medians and quartiles of the record files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *parent != "":
		return runCompare(*parent, fs.Args(), stdout, stderr)
	case *summarize:
		return runSummarize(fs.Args(), stdout, stderr)
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "northup-benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}

	var selected []*workload
	if *sel == "all" {
		selected = workloads
	} else {
		for _, name := range strings.Split(*sel, ",") {
			w := findWorkload(strings.TrimSpace(name))
			if w == nil {
				fmt.Fprintf(stderr, "northup-benchmark: unknown workload %q (have %s)\n", name, strings.Join(names, ", "))
				return 2
			}
			selected = append(selected, w)
		}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, setups: setupReps}
	switch *traceArg {
	case "0", "":
	case "1":
		cfg.traceDir = defaultTraceDir
	default:
		cfg.traceDir = *traceArg
	}
	results, err := runAll(selected, cfg, stdout)
	if err == nil && *out != "" {
		err = appendRecords(*out, results)
	}
	if err != nil {
		fmt.Fprintf(stderr, "northup-benchmark: %v\n", err)
		return 1
	}
	for _, r := range results {
		if !r.correct() {
			return 1
		}
	}
	return 0
}

// runAll measures the workloads one after another in this process, printing
// each one's table and result line.
func runAll(selected []*workload, cfg runConfig, stdout io.Writer) ([]*result, error) {
	fmt.Fprintf(stdout, "northup benchmark: seed %d, GOMAXPROCS %d (nproc %d), %s\n",
		cfg.seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	var tr *tracer
	if cfg.traceDir != "" {
		tr = newTracer()
	}
	var results []*result
	for _, w := range selected {
		fmt.Fprintf(stdout, "== %s\n", w.name)
		res, r, err := runWorkload(w, cfg, tr)
		if err != nil {
			return results, err
		}
		results = append(results, res)
		if tr != nil {
			hostLayers(res, r, cfg.traceDir, tr)
		}
		res.writeTable(stdout)
		if tr != nil {
			tr.writeSelfTimes(stdout, w.name)
		}
		if err := writeJSONLine(stdout, res.line()); err != nil {
			return results, err
		}
	}
	if tr != nil {
		if err := tr.writeSpans(cfg.traceDir); err != nil {
			return results, fmt.Errorf("writing spans: %w", err)
		}
	}
	return results, nil
}

// appendRecords appends one JSON line per result to path.
func appendRecords(path string, results []*result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var werr error
	for _, r := range results {
		if werr = writeJSONLine(f, r.record()); werr != nil {
			break
		}
	}
	return errors.Join(werr, f.Close())
}
