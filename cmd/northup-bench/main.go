// Command northup-bench regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	northup-bench [-fig 6|7|8|8disk|9|11|overhead|cache|affinity|stream|serve|perf|all] [-scale 1|2|4|8]
//	              [-format table|csv|json]
//	northup-bench -baseline BENCH_perf.json [-scale 1|2|4|8]
//	northup-bench -check BENCH_perf.json
//
// Any mode takes -cpuprofile and -memprofile to write pprof output for the
// whole run (flushed on every exit path, including a failing -check).
//
// Each figure driver runs the real runtime and applications in phantom
// (timing-only) mode at the paper's input sizes and prints the rows/series
// the corresponding figure plots. -scale shrinks every dimension coherently
// for quick looks.
//
// -baseline runs the perf suite (GEMM, HotSpot, SpMV out-of-core on the SSD
// tree with the metrics registry attached) and writes the profile to the
// given file; commit it as the repo's perf baseline. -check re-runs the
// suite at the baseline's recorded scale, diffs every metric against the
// baseline with per-metric tolerances, prints the report, and exits 1 on
// regression — the CI perf gate (`make bench-check`).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/figures"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 6, 7, 8, 8disk, 9, 11, overhead, cache, affinity, stream, serve, perf, all")
	scale := flag.Int("scale", 1, "divide the paper's input dimensions (1, 2, 4, 8)")
	format := flag.String("format", "table", "output format: table, csv, or json")
	baseline := flag.String("baseline", "", "run the perf suite and write the baseline profile to this file")
	check := flag.String("check", "", "re-run the perf suite and diff against this baseline; exit 1 on regression")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	flag.Parse()

	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	// Every exit path funnels through here so the profiles are always
	// flushed — a failing gate run is exactly the one worth profiling.
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	o := figures.Options{Scale: *scale}

	if *baseline != "" {
		writeBaseline(*baseline, o, exit)
		exit(0)
	}
	if *check != "" {
		checkBaseline(*check, exit)
		exit(0)
	}
	run := func(name string, fn func() (figures.Renderer, error)) {
		start := time.Now()
		res, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "northup-bench: %s: %v\n", name, err)
			exit(1)
		}
		switch *format {
		case "csv":
			fmt.Print(res.CSV())
			return
		case "json":
			j, ok := res.(interface{ JSON() string })
			if !ok {
				fmt.Fprintf(os.Stderr, "northup-bench: %s has no JSON rendering\n", name)
				exit(2)
			}
			fmt.Print(j.JSON())
			return
		}
		fmt.Println(res)
		fmt.Printf("(%s regenerated in %.1fs wall time)\n\n", name, time.Since(start).Seconds())
	}

	known := map[string]bool{"all": true, "6": true, "7": true, "8": true,
		"8disk": true, "9": true, "11": true, "overhead": true, "cache": true,
		"affinity": true, "stream": true, "serve": true, "perf": true}
	if !known[*fig] {
		fmt.Fprintf(os.Stderr, "northup-bench: unknown figure %q (want 6, 7, 8, 8disk, 9, 11, overhead, cache, affinity, stream, serve, perf, all)\n", *fig)
		exit(2)
	}
	want := func(name string) bool { return *fig == "all" || *fig == name }

	if want("6") {
		run("figure 6", func() (figures.Renderer, error) { return figures.Fig6(o) })
	}
	if want("7") {
		run("figure 7", func() (figures.Renderer, error) { return figures.Fig7(o) })
	}
	if want("8") {
		run("figure 8", func() (figures.Renderer, error) { return figures.Fig8(o) })
	}
	if want("8disk") {
		run("figure 8 (disk-root variant)", func() (figures.Renderer, error) { return figures.Fig8Disk(o) })
	}
	if want("9") {
		run("figure 9", func() (figures.Renderer, error) { return figures.Fig9(o) })
	}
	if want("11") {
		run("figure 11", func() (figures.Renderer, error) { return figures.Fig11(o) })
	}
	if want("overhead") {
		run("runtime overhead (§V-B)", func() (figures.Renderer, error) { return figures.Overhead(o) })
	}
	if want("cache") {
		run("staging-cache ablation", func() (figures.Renderer, error) { return figures.CacheAblation(o) })
	}
	if want("affinity") {
		run("data-affinity scheduler ablation", func() (figures.Renderer, error) { return figures.AffinityAblation(o) })
	}
	if want("stream") {
		run("streamed-transfer overlap", func() (figures.Renderer, error) { return figures.StreamOverlap(o) })
	}
	if want("serve") {
		run("multi-tenant serve saturation", func() (figures.Renderer, error) { return figures.ServeSaturation(o) })
	}
	if want("perf") {
		run("perf profile", func() (figures.Renderer, error) { return figures.PerfSuite(o) })
	}
	stopProfiles()
}

// startProfiles arms the optional pprof outputs and returns the flush hook.
func startProfiles(cpu, mem string) func() {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "northup-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "northup-bench: %v\n", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	flushed := false
	return func() {
		if flushed {
			return
		}
		flushed = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "northup-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "northup-bench: %v\n", err)
			}
		}
	}
}

// writeBaseline runs the perf suite and writes the baseline document.
func writeBaseline(path string, o figures.Options, exit func(int)) {
	prof, err := figures.PerfSuite(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "northup-bench: %v\n", err)
		exit(1)
	}
	if err := os.WriteFile(path, []byte(prof.JSON()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "northup-bench: %v\n", err)
		exit(1)
	}
	fmt.Printf("perf baseline (scale %d, %d apps) -> %s\n",
		prof.Scale, len(prof.Apps), path)
}

// checkBaseline re-runs the suite at the baseline's scale and diffs.
func checkBaseline(path string, exit func(int)) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "northup-bench: %v\n", err)
		exit(1)
	}
	base, err := figures.ParsePerfProfile(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "northup-bench: %v\n", err)
		exit(1)
	}
	start := time.Now()
	got, err := figures.PerfSuite(figures.Options{Scale: base.Scale})
	if err != nil {
		fmt.Fprintf(os.Stderr, "northup-bench: %v\n", err)
		exit(1)
	}
	c := base.Check(got)
	fmt.Print(c.Report())
	fmt.Printf("(suite re-ran at scale %d in %.1fs wall time)\n",
		base.Scale, time.Since(start).Seconds())
	if !c.OK() {
		exit(1)
	}
}
