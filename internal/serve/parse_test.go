package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/journey"
	"repro/internal/sim"
)

const sampleYAML = `
# Two tenants sharing one APU tree.
name: sample
seed: 42
duration: 500ms
workers: 3
topology:
  preset: apu-hdd
  storage_mib: 512
  dram_mib: 128
tenants:
  - name: alpha
    rate: 120/s
    weight: 2
    quota_mib: 24
    slo: 20ms
    mix:
      - workload: gemm
        n: 256
      - workload: sort
        n: 100000
        weight: 3
  - name: beta
    rate: 0.5      # bare numbers are jobs/s too
    quota_mib: 8
    max_jobs: 9
    max_queue: 4
    mix:
      - workload: hotspot
        n: 64
        iters: 2
`

func TestParseScenarioYAML(t *testing.T) {
	scn, err := ParseScenario([]byte(sampleYAML))
	if err != nil {
		t.Fatal(err)
	}
	if scn.Name != "sample" || scn.Seed != 42 || scn.Workers != 3 {
		t.Fatalf("header mismatch: %+v", scn)
	}
	if scn.Duration != 500*sim.Millisecond {
		t.Fatalf("duration = %d", scn.Duration)
	}
	if scn.Topology.Preset != "apu-hdd" || scn.Topology.DRAMMiB != 128 {
		t.Fatalf("topology mismatch: %+v", scn.Topology)
	}
	if len(scn.Tenants) != 2 {
		t.Fatalf("want 2 tenants, got %d", len(scn.Tenants))
	}
	a, b := scn.Tenants[0], scn.Tenants[1]
	if a.Rate != 120 || a.Weight != 2 || a.SLO != 20*sim.Millisecond {
		t.Fatalf("alpha mismatch: %+v", a)
	}
	if a.Mix[1].Weight != 3 || a.Mix[0].Weight != 1 {
		t.Fatalf("mix weights: %+v", a.Mix)
	}
	if b.Rate != 0.5 || b.MaxJobs != 9 || b.MaxQueue != 4 {
		t.Fatalf("beta mismatch: %+v", b)
	}
	if b.Weight != 1 || b.Mix[0].Iters != 2 {
		t.Fatalf("beta defaults: %+v", b)
	}
}

func TestParseScenarioDefaults(t *testing.T) {
	scn, err := ParseScenario([]byte(`
name: tiny
duration: 1s
tenants:
  - name: only
    rate: 1/s
    quota_mib: 4
    mix:
      - workload: sort
        n: 1000
`))
	if err != nil {
		t.Fatal(err)
	}
	if scn.Workers != 2 {
		t.Fatalf("default workers = %d", scn.Workers)
	}
	if scn.Topology.Preset != "apu-ssd" || scn.Topology.StorageMiB != 1024 || scn.Topology.DRAMMiB != 256 {
		t.Fatalf("default topology = %+v", scn.Topology)
	}
	if tn := scn.Tenants[0]; tn.Weight != 1 || tn.MaxQueue != 64 || tn.Mix[0].Weight != 1 {
		t.Fatalf("tenant defaults = %+v", tn)
	}
}

func TestParseScenarioJSON(t *testing.T) {
	scn, err := ParseScenario([]byte(`{
  "name": "json-sample",
  "seed": 7,
  "duration": "250ms",
  "topology": {"preset": "apu-ssd", "dram_mib": 64},
  "tenants": [
    {"name": "a", "rate": "10/s", "quota_mib": 16,
     "mix": [{"workload": "spmv", "n": 5000}]}
  ]
}`))
	if err != nil {
		t.Fatal(err)
	}
	if scn.Name != "json-sample" || scn.Duration != 250*sim.Millisecond {
		t.Fatalf("mismatch: %+v", scn)
	}
	if scn.Tenants[0].Rate != 10 {
		t.Fatalf("rate = %g", scn.Tenants[0].Rate)
	}
}

// TestParseScenarioErrors drives every rejection class the DSL promises:
// syntax, schema and semantic failures all return errors (and, per the
// fuzz tier, never panic).
func TestParseScenarioErrors(t *testing.T) {
	base := func(mut func(s string) string) string {
		return mut(`name: x
duration: 1s
tenants:
  - name: a
    rate: 10/s
    quota_mib: 4
    mix:
      - workload: sort
        n: 100
`)
	}
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"empty", "", "empty scenario"},
		{"comment only", "# nothing\n", "empty document"},
		{"tab indent", "name: x\n\ttenants:\n", "tabs"},
		{"bad line", "name x\n", "key: value"},
		{"duplicate key", "name: x\nname: y\n", "duplicate key"},
		{"flow style", "tenants: [a, b]\n", "flow collections"},
		{"unknown top key", base(func(s string) string { return s + "zone: z\n" }), `unknown key "zone"`},
		{"unknown tenant key", strings.Replace(base(func(s string) string { return s }),
			"rate: 10/s", "rate: 10/s\n    color: red", 1), `unknown key "color"`},
		{"negative rate", strings.Replace(base(func(s string) string { return s }),
			"rate: 10/s", "rate: -3/s", 1), "must be positive"},
		{"bad rate", strings.Replace(base(func(s string) string { return s }),
			"rate: 10/s", "rate: fast", 1), "not a rate"},
		{"zero quota", strings.Replace(base(func(s string) string { return s }),
			"quota_mib: 4", "quota_mib: 0", 1), "quota"},
		{"unknown workload", strings.Replace(base(func(s string) string { return s }),
			"workload: sort", "workload: raytrace", 1), "unknown workload"},
		{"gemm misaligned", strings.Replace(base(func(s string) string { return s }),
			"workload: sort", "workload: gemm", 1), "multiple of 64"},
		{"no tenants", "name: x\nduration: 1s\ntenants:\n", "tenants"},
		{"no horizon", strings.Replace(base(func(s string) string { return s }),
			"duration: 1s", "duration: 0s", 1), "never stop"},
		{"bad duration", strings.Replace(base(func(s string) string { return s }),
			"duration: 1s", "duration: soon", 1), "not a duration"},
		{"huge n", strings.Replace(base(func(s string) string { return s }),
			"n: 100", "n: 99999999", 1), "ceiling"},
		{"hotspot cost overflow", `{"name":"x","duration":"1s","tenants":[{"name":"a","rate":1,"quota_mib":1,` +
			`"mix":[{"workload":"hotspot","n":65536,"iters":2147483647}]}]}`, `tenant "a" mix[0]: hotspot iters 2147483647`},
		{"bad json", `{"name": 3 &&&`, "bad JSON"},
		{"json trailing", `{"name": "x"} tail`, "trailing data"},
		{"duplicate tenant", strings.Replace(base(func(s string) string { return s }),
			"duration: 1s", "duration: 1s\nworkers: 2", 1) + `  - name: a
    rate: 1/s
    quota_mib: 4
    mix:
      - workload: sort
        n: 10
`, "duplicate tenant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenario([]byte(tc.in))
			if err == nil {
				t.Fatalf("expected an error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestYAMLQuoting(t *testing.T) {
	scn, err := ParseScenario([]byte(`
name: "quoted # name"
duration: '2s'
tenants:
  - name: 'it''s'
    rate: "10/s"
    quota_mib: 4
    mix:
      - workload: sort
        n: 100
`))
	if err != nil {
		t.Fatal(err)
	}
	if scn.Name != "quoted # name" {
		t.Fatalf("name = %q", scn.Name)
	}
	if scn.Duration != 2*sim.Second {
		t.Fatalf("duration = %d", scn.Duration)
	}
	if scn.Tenants[0].Name != "it's" {
		t.Fatalf("tenant name = %q", scn.Tenants[0].Name)
	}
}

const opsYAML = `
name: ops-sample
seed: 3
duration: 1m
ops:
  step: 2s
  window: 20s
  top_k: 5
  trace_events: 1024
tenants:
  - name: a
    rate: 10/s
    quota_mib: 4
    slo: 5ms
    slo_target: 0.995
    mix:
      - workload: sort
        n: 100
alerts:
  - name: a-fast-burn
    tenant: a
    metric: slo_burn
    threshold: 14.4
    fast_window: 5m
    slow_window: 1h
    severity: page
  - name: a-slow-p99
    tenant: a
    metric: p99_latency_ns
    threshold: 20ms
    fast_window: 15m
    slow_window: 1h
    severity: ticket
`

// TestParseOpsAndAlerts checks the ops block and alert rules decode with
// duration-syntax thresholds and per-tenant SLO targets.
func TestParseOpsAndAlerts(t *testing.T) {
	scn, err := ParseScenario([]byte(opsYAML))
	if err != nil {
		t.Fatal(err)
	}
	if !scn.OpsEnabled() {
		t.Fatal("ops block did not enable the plane")
	}
	if scn.Ops.Step != 2*sim.Second || scn.Ops.Window != 20*sim.Second {
		t.Fatalf("ops cadence = %+v", scn.Ops)
	}
	if scn.Ops.TopK != 5 || scn.Ops.TraceEvents != 1024 {
		t.Fatalf("ops sizing = %+v", scn.Ops)
	}
	if got := scn.Tenants[0].SLOTarget; got != 0.995 {
		t.Fatalf("slo_target = %g, want 0.995", got)
	}
	if len(scn.Alerts) != 2 {
		t.Fatalf("want 2 alert rules, got %d", len(scn.Alerts))
	}
	fast, p99 := scn.Alerts[0], scn.Alerts[1]
	if fast.Name != "a-fast-burn" || fast.Metric != MetricSLOBurn || fast.Threshold != 14.4 {
		t.Fatalf("fast rule = %+v", fast)
	}
	if fast.FastWindow != 300*sim.Second || fast.SlowWindow != 3600*sim.Second || fast.Severity != "page" {
		t.Fatalf("fast rule windows = %+v", fast)
	}
	// Duration syntax for latency-valued thresholds: 20ms -> ns.
	if p99.Metric != MetricP99 || p99.Threshold != float64(20*sim.Millisecond) {
		t.Fatalf("p99 rule = %+v", p99)
	}
}

// TestParseBurnRateScenarioFile parses the committed burn-rate scenario,
// keeping the DSL documentation honest.
func TestParseBurnRateScenarioFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "specs", "scenarios", "burn-rate.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	scn, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if scn.Name != "burn-rate" || !scn.OpsEnabled() {
		t.Fatalf("burn-rate scenario header = %+v", scn)
	}
	if len(scn.Alerts) != 2 {
		t.Fatalf("want 2 alert rules, got %d", len(scn.Alerts))
	}
	for _, r := range scn.Alerts {
		if r.Tenant != "bursty" || r.Metric != MetricSLOBurn {
			t.Fatalf("unexpected rule %+v", r)
		}
	}
}

// TestCommittedScenariosParse parses every committed scenario: each must
// pass validation, the bound on window ring steps included.
func TestCommittedScenariosParse(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "specs", "scenarios", "*"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no committed scenarios (%v)", err)
	}
	for _, path := range specs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseScenario(data); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestParseOpsAndAlertErrors walks the strict-parser and validation
// rejections for the ops block and alert rules.
func TestParseOpsAndAlertErrors(t *testing.T) {
	mut := func(old, new string) string {
		s := strings.Replace(opsYAML, old, new, 1)
		if s == opsYAML {
			t.Fatalf("mutation %q -> %q did not apply", old, new)
		}
		return s
	}
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"unknown ops key", mut("top_k: 5", "top_k: 5\n  cadence: fast"), `unknown key "cadence"`},
		{"unknown alert key", mut("severity: page", "severity: page\n    pager: oncall"), `unknown key "pager"`},
		{"duplicate rule name", mut("name: a-slow-p99", "name: a-fast-burn"), `duplicate alert rule "a-fast-burn"`},
		{"unknown metric", mut("metric: slo_burn", "metric: goodput"), `unknown metric "goodput"`},
		{"unknown severity", mut("severity: page", "severity: siren"), `unknown severity "siren"`},
		{"unknown tenant", mut("tenant: a\n    metric: slo_burn", "tenant: b\n    metric: slo_burn"), `unknown tenant "b"`},
		{"slow shorter than fast", mut("slow_window: 1h\n    severity: page", "slow_window: 1m\n    severity: page"), "shorter than fast window"},
		{"zero fast window", mut("fast_window: 5m", "fast_window: 0s"), "fast window must be positive"},
		{"negative threshold", mut("threshold: 14.4", "threshold: -1"), "must be non-negative"},
		{"bad threshold", mut("threshold: 14.4", "threshold: lots"), "not a number or duration"},
		{"window below step", mut("window: 20s", "window: 1s"), "shorter than step"},
		{"ops window ring too long", strings.Replace(mut("window: 20s", "window: 10s"), "step: 2s", "step: 1ns", 1),
			"ops window 10s spans 10000000000 steps of 1ns, more than the 100000"},
		{"slow window ring too long", mut("slow_window: 1h\n    severity: ticket", "slow_window: 10000h\n    severity: ticket"),
			`alert[1]: rule "a-slow-p99" slow window 3.6e+07s spans 18000000 steps of 2s`},
		{"negative ops field", mut("top_k: 5", "top_k: -2"), "out of range"},
		{"slo_target too high", mut("slo_target: 0.995", "slo_target: 1.5"), "must lie in (0, 1)"},
		{"rule without name", mut("name: a-fast-burn", "name: ''"), "rule has no name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenario([]byte(tc.in))
			if err == nil {
				t.Fatalf("expected an error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

const journeysYAML = `
name: jny
seed: 3
workers: 1
topology:
  preset: apu-ssd
  storage_mib: 64
  dram_mib: 16
tenants:
  - name: a
    rate: 10/s
    quota_mib: 4
    max_jobs: 3
    mix:
      - workload: sort
        n: 1000
journeys:
  enabled: true
  sample: 0.25
  max_segments: 64
`

// TestParseJourneys covers the journeys block: parsed values, defaults when
// fields are omitted, and the strict-parser/validation rejections.
func TestParseJourneys(t *testing.T) {
	scn, err := ParseScenario([]byte(journeysYAML))
	if err != nil {
		t.Fatal(err)
	}
	if !scn.JourneysEnabled() || scn.Journeys.Sample != 0.25 || scn.Journeys.MaxSegments != 64 {
		t.Fatalf("journeys spec = %+v", scn.Journeys)
	}

	// Omitting sample and max_segments picks full sampling and the default
	// segment cap once defaults are applied.
	bare := strings.Replace(journeysYAML, "  sample: 0.25\n  max_segments: 64\n", "", 1)
	scn, err = ParseScenario([]byte(bare))
	if err != nil {
		t.Fatal(err)
	}
	if scn.Journeys.Sample != 1.0 || scn.Journeys.MaxSegments != journey.DefaultMaxSegments {
		t.Fatalf("journeys defaults = %+v", scn.Journeys)
	}

	// Without the block, the layer stays off entirely.
	off := strings.Replace(journeysYAML, "journeys:\n  enabled: true\n  sample: 0.25\n  max_segments: 64\n", "", 1)
	if scn, err = ParseScenario([]byte(off)); err != nil {
		t.Fatal(err)
	}
	if scn.JourneysEnabled() {
		t.Fatalf("journeys enabled without a block: %+v", scn.Journeys)
	}

	cases := []struct {
		name, old, new, want string
	}{
		{"unknown key", "max_segments: 64", "max_segments: 64\n  color: red", `unknown key "color"`},
		{"sample above 1", "sample: 0.25", "sample: 1.5", "must lie in (0, 1]"},
		{"negative sample", "sample: 0.25", "sample: -0.5", "must lie in (0, 1]"},
		{"bad max_segments", "max_segments: 64", "max_segments: -3", "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := strings.Replace(journeysYAML, tc.old, tc.new, 1)
			if in == journeysYAML {
				t.Fatalf("mutation %q did not apply", tc.old)
			}
			_, err := ParseScenario([]byte(in))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v does not mention %q", err, tc.want)
			}
		})
	}
}
