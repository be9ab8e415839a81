// Command northup-serve runs a multi-tenant traffic scenario against the
// shared topology tree and reports per-tenant service quality.
//
// Usage:
//
//	northup-serve -scenario FILE [-format table|json] [-functional]
//	              [-metrics FILE] [-records FILE] [-alerts FILE]
//	              [-windows FILE] [-stats]
//	              [-journeys] [-tail] [-tail-q Q]
//	              [-journeys-out FILE] [-trace-out FILE]
//	              [-http ADDR] [-pace N] [-linger D]
//
// The scenario file (YAML or JSON, see specs/scenarios/) declares the
// topology, the tenants, their workload mixes, Poisson arrival rates,
// memory quotas and latency SLOs. The engine admits jobs under per-tenant
// quota and backlog limits, schedules them with weighted fair queueing
// across the configured workers, and reports virtual-time p50/p99 latency,
// throughput and rejection counts per tenant.
//
// Runs are phantom (timing-only) by default; -functional executes real
// kernels and fingerprints each job's output, at the cost of allocating
// the data. Either way the simulation is deterministic: the same scenario
// and seed reproduce byte-identical reports, records and metrics.
//
// -metrics writes the merged metrics registry (runtime series plus every
// tenant's northup_serve_* series) in Prometheus text format; -records
// writes the per-job completion log as JSON. "-" selects stdout for both.
//
// Scenarios with an ops: block or alerts: rules additionally run the live
// operations plane: rolling windows of per-tenant health refresh at every
// step and multiwindow burn-rate rules produce a deterministic alert
// timeline (-alerts writes it as JSON, -windows the windowed series).
// With -http the run serves a live admin plane — /metrics, /healthz,
// /tenants and /alerts — while it executes; -pace maps virtual to wall
// time (e.g. -pace 60 advances one virtual minute per wall second, 0 runs
// flat out) and -linger keeps the endpoints up after completion so
// dashboards and scripts can read the final state.
//
// -stats adds wall-clock engine throughput (events/sec) to the report;
// without it the report stays byte-identical across runs.
//
// Per-job journeys (scenario journeys: block, or forced with -journeys)
// give every sampled admitted job a deterministic trace ID and record its
// life as causally linked phase spans — admit-wait, queue-wait, staging
// hops, kernel time, merge, blocked gaps — whose durations sum bit-for-bit
// to the recorded latency. -tail prints the tail-latency analyzer (phase
// decomposition of the -tail-q quantile per tenant plus the pivot job's
// waterfall), -journeys-out writes every journey as JSON, and -trace-out
// writes a Chrome/Perfetto trace of the run with one "job:<trace-id>" lane
// per journey (northup-trace -job ID renders a waterfall from that file).
// Journeys observe the schedule without perturbing it: reports and records
// are byte-identical with the layer on or off.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// options is the parsed command line.
type options struct {
	scenario, format                  string
	functional, stats, journeys, tail bool
	metrics, records, alerts, windows string
	journeysOut, traceOut, httpAddr   string
	tailQ, pace                       float64
	linger                            time.Duration

	set   map[string]bool // the flags given on the command line
	usage func()
}

// parseFlags reads the command line into options; validate checks them.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("northup-serve", flag.ContinueOnError)
	fs.StringVar(&o.scenario, "scenario", "", "scenario file to run (YAML or JSON, required)")
	fs.StringVar(&o.format, "format", "table", "report format: table or json")
	fs.BoolVar(&o.functional, "functional", false, "execute real kernels and hash job outputs (default: phantom timing-only)")
	fs.StringVar(&o.metrics, "metrics", "", "write the merged metrics registry (Prometheus text) to this file, - for stdout")
	fs.StringVar(&o.records, "records", "", "write the per-job completion log (JSON) to this file, - for stdout")
	fs.StringVar(&o.alerts, "alerts", "", "write the alert timeline (JSON) to this file, - for stdout")
	fs.StringVar(&o.windows, "windows", "", "write the windowed series (JSON) to this file, - for stdout")
	fs.BoolVar(&o.stats, "stats", false, "add wall-clock engine stats (events/sec) to the report")
	fs.BoolVar(&o.journeys, "journeys", false, "force per-job journeys on (sample 1.0) even if the scenario leaves them off")
	fs.BoolVar(&o.tail, "tail", false, "print the tail-latency analyzer (requires journeys)")
	fs.Float64Var(&o.tailQ, "tail-q", 0.99, "quantile the tail analyzer decomposes (with -tail)")
	fs.StringVar(&o.journeysOut, "journeys-out", "", "write every recorded journey (JSON) to this file, - for stdout")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace of the run (with per-job journey lanes) to this file, - for stdout")
	fs.StringVar(&o.httpAddr, "http", "", "serve the live admin plane (/metrics /healthz /tenants /alerts) on this address during the run")
	fs.Float64Var(&o.pace, "pace", 0, "virtual seconds advanced per wall-clock second with -http (0 = flat out)")
	fs.DurationVar(&o.linger, "linger", 0, "keep the -http admin plane serving this long after the run completes")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.set = make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	o.usage = fs.Usage
	return o, nil
}

// validate refuses a missing scenario, an unknown format and every flag
// the run would silently ignore, naming the flag: -pace and -linger only
// shape the -http admin plane, -tail-q only the -tail analyzer.
func (o *options) validate() error {
	if o.scenario == "" {
		return errors.New("-scenario FILE is required (see specs/scenarios/)")
	}
	if o.format != "table" && o.format != "json" {
		return fmt.Errorf("unknown format %q (want table or json)", o.format)
	}
	for _, r := range []struct {
		flag, needs string
		honoured    bool
	}{
		{"pace", "-http", o.httpAddr != ""},
		{"linger", "-http", o.httpAddr != ""},
		{"tail-q", "-tail", o.tail},
	} {
		if o.set[r.flag] && !r.honoured {
			return fmt.Errorf("-%s has no effect without %s", r.flag, r.needs)
		}
	}
	return nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "northup-serve: %v\n", err)
		if o.scenario == "" {
			o.usage()
		}
		os.Exit(2)
	}

	data, err := os.ReadFile(o.scenario)
	if err != nil {
		fatal(err)
	}
	scn, err := serve.ParseScenario(data)
	if err != nil {
		fatal(err)
	}
	if o.journeys && !scn.Journeys.Enabled {
		scn.Journeys = serve.JourneySpec{Enabled: true}
	}
	if (o.tail || o.journeysOut != "") && !scn.Journeys.Enabled {
		fmt.Fprintln(os.Stderr, "northup-serve: -tail/-journeys-out need journeys (scenario journeys: block or -journeys)")
		os.Exit(2)
	}
	eng, err := serve.New(scn, serve.RunOptions{
		Phantom:   !o.functional,
		WallStats: o.stats,
		Trace:     o.traceOut != "",
	})
	if err != nil {
		fatal(err)
	}
	var rep *serve.Report
	if o.httpAddr != "" {
		live := serve.NewLive(eng)
		ln, err := net.Listen("tcp", o.httpAddr)
		if err != nil {
			fatal(err)
		}
		srv := &http.Server{Handler: live.Handler()}
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "northup-serve: admin plane on http://%s (pace %g)\n", ln.Addr(), o.pace)
		rep, err = live.RunPaced(o.pace, 0)
		if err != nil {
			fatal(err)
		}
		if o.linger > 0 {
			time.Sleep(o.linger)
		}
		srv.Close()
	} else {
		rep, err = eng.Run()
		if err != nil {
			fatal(err)
		}
	}

	switch o.format {
	case "json":
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	default:
		fmt.Print(rep.String())
	}

	if o.metrics != "" {
		err := emit(o.metrics, func(w io.Writer) error {
			return eng.MergedRegistry().WritePrometheus(w)
		})
		if err != nil {
			fatal(err)
		}
	}
	if o.records != "" {
		err := emit(o.records, func(w io.Writer) error {
			e := json.NewEncoder(w)
			e.SetIndent("", "  ")
			return e.Encode(eng.Records())
		})
		if err != nil {
			fatal(err)
		}
	}
	if o.alerts != "" {
		err := emit(o.alerts, func(w io.Writer) error {
			return writeIndented(w, nonNil(eng.AlertEvents()))
		})
		if err != nil {
			fatal(err)
		}
	}
	if o.windows != "" {
		err := emit(o.windows, func(w io.Writer) error {
			return writeIndented(w, eng.WindowSeries())
		})
		if err != nil {
			fatal(err)
		}
	}
	if o.tail {
		fmt.Print(eng.TailReport(o.tailQ).String())
	}
	if o.journeysOut != "" {
		err := emit(o.journeysOut, func(w io.Writer) error {
			return writeIndented(w, eng.Journeys().Export())
		})
		if err != nil {
			fatal(err)
		}
	}
	if o.traceOut != "" {
		err := emit(o.traceOut, func(w io.Writer) error {
			return trace.WriteChromeTrace(w, eng.TraceEvents(), trace.ChromeExportOptions{
				NodeLabel:     eng.TraceNodeLabel,
				DroppedEvents: eng.TraceDropped(),
			})
		})
		if err != nil {
			fatal(err)
		}
	}
}

// writeIndented renders v as indented JSON.
func writeIndented(w io.Writer, v any) error {
	e := json.NewEncoder(w)
	e.SetIndent("", "  ")
	return e.Encode(v)
}

// nonNil turns a nil slice into an empty one so exports render [] not null.
func nonNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// emit writes through fn to path, with "-" meaning stdout.
func emit(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "northup-serve: %v\n", err)
	os.Exit(1)
}
