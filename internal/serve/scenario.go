// Package serve is the multi-tenant traffic engine of the Northup
// reproduction: it admits *streams* of jobs from several tenants against a
// *shared* topology tree, where the original paper (and PRs 1–5) executed
// one job at a time on a private tree.
//
// A scenario — declared in a small YAML/JSON DSL (parse.go, yaml.go) —
// names the tenants, their workload mixes (GEMM / SpMV / HotSpot / sort at
// varying sizes), open-loop Poisson arrival rates driven by seeded
// deterministic RNGs, per-tenant staging-memory quotas, and latency SLOs.
// The engine (engine.go) layers admission control and weighted-fair
// queueing over the existing internal/sched deques, runs each admitted job
// as a root task on the shared core.Runtime (Runtime.Start — the same
// mechanism the cluster package uses to multiplex one engine), and reports
// per-tenant latency percentiles from internal/obs fixed-bucket histograms
// (report.go).
//
// Everything is deterministic: arrivals come from per-tenant math/rand
// sources seeded from the scenario seed, the simulation engine serializes
// all activity, and metric exports are byte-stable — the same scenario and
// seed reproduce byte-identical per-tenant metrics JSON, which the
// determinism property tests assert.
package serve

import (
	"fmt"
	"math"

	"repro/internal/apps/gemm"
	"repro/internal/apps/hotspot"
	"repro/internal/device"
	"repro/internal/journey"
	"repro/internal/sim"
)

// Workload kinds a mix entry may name.
const (
	WorkloadGEMM    = "gemm"
	WorkloadSpMV    = "spmv"
	WorkloadHotSpot = "hotspot"
	WorkloadSort    = "sort"
)

// spmvAvgNNZ is the fixed average row population of serve SpMV jobs (the
// paper's uniform synthetic structure).
const spmvAvgNNZ = 8

// Alert-rule metric selectors. Each is a windowed per-tenant value the ops
// plane can evaluate against a rule threshold.
const (
	// MetricSLOBurn is the error-budget burn rate: the windowed fraction
	// of completions that violated the tenant SLO, divided by the tenant's
	// error budget (1 - slo_target). Burn 1.0 means "spending budget at
	// exactly the sustainable rate"; 14.4 is the classic fast-burn page.
	MetricSLOBurn = "slo_burn"
	// MetricRejectRatio is windowed rejections / arrivals.
	MetricRejectRatio = "reject_ratio"
	// MetricErrorRatio is windowed job errors / (errors + completions).
	MetricErrorRatio = "error_ratio"
	// MetricP99 is the windowed p99 latency in virtual nanoseconds; rule
	// thresholds for it accept duration syntax ("20ms").
	MetricP99 = "p99_latency_ns"
	// MetricQueueDepth is the windowed max of the tenant's queue depth.
	MetricQueueDepth = "queue_depth"
)

// DefaultSLOTarget is the SLO attainment objective assumed when a tenant
// declares an SLO without a target: 99% of completions inside the SLO.
const DefaultSLOTarget = 0.99

// maxMixN bounds problem sizes so footprint arithmetic stays far from
// overflow and a typo'd dimension fails at parse time, not at runtime.
const maxMixN = 1 << 20

// maxWindowSteps bounds how many steps the ops window or a rule's slow
// window may span. The plane sizes every series' ring to the widest window
// up front, one sample per step (16 bytes, a histogram snapshot for the
// latency series), so a fine step under a wide window would exhaust memory.
const maxWindowSteps = 100_000

// checkWindowSteps refuses a window that spans more steps than a ring holds.
func checkWindowSteps(what string, window, step sim.Time) error {
	if step > 0 && window/step > maxWindowSteps {
		return fmt.Errorf("%s %v spans %d steps of %v, more than the %d a window ring holds",
			what, window, window/step, step, maxWindowSteps)
	}
	return nil
}

// MixEntry is one workload in a tenant's mix, drawn with probability
// proportional to Weight.
type MixEntry struct {
	// Workload is one of gemm, spmv, hotspot, sort.
	Workload string
	// N is the problem dimension: matrix/grid side for gemm and hotspot,
	// row count for spmv, key count for sort.
	N int
	// Iters is the stencil iteration count (hotspot only; default 4).
	Iters int
	// Weight is the entry's draw weight within the mix (default 1).
	Weight float64
}

// Tenant declares one traffic source.
type Tenant struct {
	Name string
	// Rate is the open-loop Poisson arrival rate in jobs per second
	// (the DSL's "rate: 10/s").
	Rate float64
	// Weight is the tenant's weighted-fair-queueing share (default 1).
	Weight float64
	// QuotaMiB caps the tenant's staging-memory footprint: a job whose
	// working set cannot fit the quota is rejected at admission, and
	// dispatch holds a job back while the tenant's in-flight footprint
	// plus the job's would exceed it.
	QuotaMiB int64
	// SLO is the per-job latency objective; completions above it count
	// into northup_serve_slo_violations_total. Zero disables the check.
	SLO sim.Time
	// SLOTarget is the attainment objective the error budget derives from:
	// burn rate 1.0 means violations arrive at exactly (1 - SLOTarget) of
	// completions. Defaults to DefaultSLOTarget; must lie in (0, 1).
	SLOTarget float64
	// MaxJobs stops the tenant's arrival stream after this many arrivals
	// (0 = until the scenario duration elapses).
	MaxJobs int
	// MaxQueue caps the admission backlog; arrivals beyond it are
	// rejected with reason "backlog" (default 64).
	MaxQueue int
	Mix      []MixEntry
}

// QuotaBytes returns the tenant's staging quota in bytes.
func (t *Tenant) QuotaBytes() int64 { return t.QuotaMiB * device.MiB }

// TopoSpec selects and sizes the shared topology tree.
type TopoSpec struct {
	// Preset is "apu-ssd" (default) or "apu-hdd": the paper's 2-level
	// storage -> DRAM(+GPU,+CPU) tree.
	Preset string
	// StorageMiB sizes the root storage (default 1024).
	StorageMiB int64
	// DRAMMiB sizes the staging DRAM the quotas carve up (default 256).
	DRAMMiB int64
}

// OpsSpec configures the live operations plane. The zero value disables
// it unless the scenario declares alert rules, in which case defaults
// apply.
type OpsSpec struct {
	// Window is the default rolling-window width for the northup_window_*
	// series (default 10s of virtual time).
	Window sim.Time
	// Step is the evaluation period: windows refresh and rules evaluate at
	// every multiple of Step (default 1s of virtual time).
	Step sim.Time
	// TopK bounds the attribution report attached to firing alerts
	// (default 3).
	TopK int
	// TraceEvents sizes the trace ring attribution reads from (default
	// trace.DefaultMaxEvents). Attribution needs tracing; the engine turns
	// the recorder on whenever the scenario has alert rules.
	TraceEvents int
	// Enabled forces the plane on even without alert rules, so a scenario
	// can collect window series alone.
	Enabled bool
}

// JourneySpec configures the per-job journey layer (internal/journey):
// trace IDs, phase waterfalls, latency-histogram exemplars, and the
// tail-latency analyzer's input. Journeys are observation only — enabling
// them never changes the job schedule — but they do add outputs (exemplar
// annotations, reject-reason counters/instants), so they default off to
// keep existing scenarios' artifacts byte-identical.
type JourneySpec struct {
	// Enabled turns the journey layer on.
	Enabled bool
	// Sample is the fraction of admitted jobs that record a journey,
	// applied as a deterministic per-tenant stride (no RNG draws, so the
	// schedule is untouched). Defaults to 1.0 when enabled; must lie in
	// (0, 1].
	Sample float64
	// MaxSegments caps each job's waterfall segment list (default 512).
	// Phase totals stay exact past the cap.
	MaxSegments int
}

// AlertRule is one declarative burn-rate alert in the DSL: fire when the
// selected metric exceeds the threshold over both the fast and the slow
// trailing window (multiwindow burn-rate alerting).
type AlertRule struct {
	// Name identifies the rule; names must be unique per scenario.
	Name string
	// Tenant scopes the rule to one tenant; empty instantiates the rule
	// for every tenant.
	Tenant string
	// Metric is one of the Metric* selectors.
	Metric string
	// Threshold is the firing level. For MetricP99 the DSL also accepts
	// duration syntax, parsed into nanoseconds.
	Threshold float64
	// FastWindow and SlowWindow are the two trailing windows; the rule
	// fires only when both exceed the threshold. SlowWindow defaults to
	// FastWindow (single-window rule) and must not be shorter.
	FastWindow, SlowWindow sim.Time
	// Severity is page (default), ticket or warn.
	Severity string
}

// Scenario is a parsed, validated traffic scenario.
type Scenario struct {
	Name string
	// Seed seeds every per-tenant arrival RNG (tenant seeds are derived
	// from it and the tenant name, so tenant order does not matter).
	Seed int64
	// Duration is the arrival horizon: no tenant generates arrivals past
	// it. Jobs admitted before the horizon run to completion.
	Duration sim.Time
	// Workers is the number of dispatch slots — how many admitted jobs
	// the shared tree executes concurrently (default 2).
	Workers  int
	Topology TopoSpec
	Tenants  []Tenant
	// Ops configures the live operations plane (windowed series, alert
	// evaluation cadence, attribution depth).
	Ops OpsSpec
	// Alerts are the scenario's burn-rate alert rules. A non-empty list
	// enables the ops plane and the trace recorder behind it.
	Alerts []AlertRule
	// Journeys configures the per-job journey layer (trace IDs, phase
	// waterfalls, exemplars, tail analysis).
	Journeys JourneySpec
}

// OpsEnabled reports whether this scenario runs the live operations plane.
func (s *Scenario) OpsEnabled() bool {
	return s.Ops.Enabled || len(s.Alerts) > 0
}

// JourneysEnabled reports whether this scenario records per-job journeys.
func (s *Scenario) JourneysEnabled() bool { return s.Journeys.Enabled }

// applyDefaults fills zero-valued optional fields in place.
func (s *Scenario) applyDefaults() {
	if s.Workers == 0 {
		s.Workers = 2
	}
	if s.Topology.Preset == "" {
		s.Topology.Preset = "apu-ssd"
	}
	if s.Topology.StorageMiB == 0 {
		s.Topology.StorageMiB = 1024
	}
	if s.Topology.DRAMMiB == 0 {
		s.Topology.DRAMMiB = 256
	}
	if s.OpsEnabled() {
		if s.Ops.Step == 0 {
			s.Ops.Step = sim.Second
		}
		if s.Ops.Window == 0 {
			s.Ops.Window = 10 * sim.Second
		}
		if s.Ops.TopK == 0 {
			s.Ops.TopK = 3
		}
	}
	if s.Journeys.Enabled {
		if s.Journeys.Sample == 0 {
			s.Journeys.Sample = 1.0
		}
		if s.Journeys.MaxSegments == 0 {
			s.Journeys.MaxSegments = journey.DefaultMaxSegments
		}
	}
	for i := range s.Alerts {
		r := &s.Alerts[i]
		if r.Severity == "" {
			r.Severity = "page"
		}
		if r.SlowWindow == 0 {
			r.SlowWindow = r.FastWindow
		}
	}
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if t.Weight == 0 {
			t.Weight = 1
		}
		if t.MaxQueue == 0 {
			t.MaxQueue = 64
		}
		if t.SLOTarget == 0 {
			t.SLOTarget = DefaultSLOTarget
		}
		for j := range t.Mix {
			m := &t.Mix[j]
			if m.Weight == 0 {
				m.Weight = 1
			}
			if m.Workload == WorkloadHotSpot && m.Iters == 0 {
				m.Iters = 4
			}
		}
	}
}

// withDefaults returns a deep copy with defaults applied, leaving the
// receiver untouched so callers can reuse it across engines.
func (s *Scenario) withDefaults() *Scenario {
	out := *s
	out.Alerts = append([]AlertRule(nil), s.Alerts...)
	out.Tenants = make([]Tenant, len(s.Tenants))
	copy(out.Tenants, s.Tenants)
	for i := range out.Tenants {
		mix := make([]MixEntry, len(out.Tenants[i].Mix))
		copy(mix, out.Tenants[i].Mix)
		out.Tenants[i].Mix = mix
	}
	out.applyDefaults()
	return &out
}

// Validate checks the scenario's semantic invariants. New applies defaults
// and calls it; programmatic builders need not call either themselves.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("serve: scenario has no name")
	}
	if s.Workers < 1 {
		return fmt.Errorf("serve: workers %d < 1", s.Workers)
	}
	switch s.Topology.Preset {
	case "apu-ssd", "apu-hdd":
	default:
		return fmt.Errorf("serve: unknown topology preset %q (want apu-ssd or apu-hdd)", s.Topology.Preset)
	}
	if s.Topology.StorageMiB <= 0 || s.Topology.DRAMMiB <= 0 {
		return fmt.Errorf("serve: topology capacities must be positive (storage %d MiB, dram %d MiB)",
			s.Topology.StorageMiB, s.Topology.DRAMMiB)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("serve: scenario %q has no tenants", s.Name)
	}
	seen := map[string]bool{}
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if t.Name == "" {
			return fmt.Errorf("serve: tenant %d has no name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("serve: duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
		if t.Rate <= 0 {
			return fmt.Errorf("serve: tenant %q rate %g must be positive", t.Name, t.Rate)
		}
		if t.Weight <= 0 {
			return fmt.Errorf("serve: tenant %q weight %g must be positive", t.Name, t.Weight)
		}
		if t.QuotaMiB <= 0 {
			return fmt.Errorf("serve: tenant %q quota %d MiB must be positive", t.Name, t.QuotaMiB)
		}
		if t.SLO < 0 {
			return fmt.Errorf("serve: tenant %q negative SLO", t.Name)
		}
		if t.SLOTarget <= 0 || t.SLOTarget >= 1 {
			return fmt.Errorf("serve: tenant %q slo_target %g must lie in (0, 1)", t.Name, t.SLOTarget)
		}
		if t.MaxJobs < 0 || t.MaxQueue < 1 {
			return fmt.Errorf("serve: tenant %q invalid max_jobs/max_queue", t.Name)
		}
		if s.Duration <= 0 && t.MaxJobs == 0 {
			return fmt.Errorf("serve: tenant %q has no max_jobs and the scenario has no duration: arrivals would never stop", t.Name)
		}
		if len(t.Mix) == 0 {
			return fmt.Errorf("serve: tenant %q has an empty mix", t.Name)
		}
		for j := range t.Mix {
			if err := validateMix(&t.Mix[j]); err != nil {
				return fmt.Errorf("serve: tenant %q mix[%d]: %w", t.Name, j, err)
			}
		}
	}
	if s.Ops.Window < 0 || s.Ops.Step < 0 || s.Ops.TopK < 0 || s.Ops.TraceEvents < 0 {
		return fmt.Errorf("serve: ops fields must be non-negative")
	}
	if s.OpsEnabled() && s.Ops.Step > 0 && s.Ops.Window > 0 && s.Ops.Window < s.Ops.Step {
		return fmt.Errorf("serve: ops window %v shorter than step %v", s.Ops.Window, s.Ops.Step)
	}
	if s.OpsEnabled() {
		if err := checkWindowSteps("ops window", s.Ops.Window, s.Ops.Step); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if s.Journeys.Enabled {
		if s.Journeys.Sample <= 0 || s.Journeys.Sample > 1 {
			return fmt.Errorf("serve: journeys sample %g must lie in (0, 1]", s.Journeys.Sample)
		}
		if s.Journeys.MaxSegments < 0 {
			return fmt.Errorf("serve: journeys max_segments must be non-negative")
		}
	}
	ruleSeen := map[string]bool{}
	for i := range s.Alerts {
		r := &s.Alerts[i]
		if err := validateAlert(r, seen); err != nil {
			return fmt.Errorf("serve: alert[%d]: %w", i, err)
		}
		if err := checkWindowSteps(fmt.Sprintf("rule %q slow window", r.Name), r.SlowWindow, s.Ops.Step); err != nil {
			return fmt.Errorf("serve: alert[%d]: %w", i, err)
		}
		if ruleSeen[r.Name] {
			return fmt.Errorf("serve: duplicate alert rule %q", r.Name)
		}
		ruleSeen[r.Name] = true
	}
	return nil
}

// validateAlert checks one alert rule; tenants is the set of declared
// tenant names.
func validateAlert(r *AlertRule, tenants map[string]bool) error {
	if r.Name == "" {
		return fmt.Errorf("rule has no name")
	}
	if r.Tenant != "" && !tenants[r.Tenant] {
		return fmt.Errorf("rule %q names unknown tenant %q", r.Name, r.Tenant)
	}
	switch r.Metric {
	case MetricSLOBurn, MetricRejectRatio, MetricErrorRatio, MetricP99, MetricQueueDepth:
	default:
		return fmt.Errorf("rule %q has unknown metric %q (want %s, %s, %s, %s or %s)",
			r.Name, r.Metric, MetricSLOBurn, MetricRejectRatio, MetricErrorRatio, MetricP99, MetricQueueDepth)
	}
	if r.Threshold < 0 {
		return fmt.Errorf("rule %q threshold %g must be non-negative", r.Name, r.Threshold)
	}
	if r.FastWindow <= 0 {
		return fmt.Errorf("rule %q fast window must be positive", r.Name)
	}
	if r.SlowWindow < r.FastWindow {
		return fmt.Errorf("rule %q slow window %v shorter than fast window %v",
			r.Name, r.SlowWindow, r.FastWindow)
	}
	switch r.Severity {
	case "page", "ticket", "warn":
	default:
		return fmt.Errorf("rule %q has unknown severity %q (want page, ticket or warn)", r.Name, r.Severity)
	}
	return nil
}

// validateMix checks one mix entry against its workload's shape rules.
func validateMix(m *MixEntry) error {
	if m.Weight <= 0 {
		return fmt.Errorf("weight %g must be positive", m.Weight)
	}
	if m.N <= 0 {
		return fmt.Errorf("n %d must be positive", m.N)
	}
	if m.N > maxMixN {
		return fmt.Errorf("n %d exceeds the serve size ceiling %d", m.N, maxMixN)
	}
	switch m.Workload {
	case WorkloadGEMM:
		if m.N%gemm.TileDim != 0 {
			return fmt.Errorf("gemm n %d must be a multiple of %d", m.N, gemm.TileDim)
		}
	case WorkloadHotSpot:
		if m.N%hotspot.BlockDim != 0 {
			return fmt.Errorf("hotspot n %d must be a multiple of %d", m.N, hotspot.BlockDim)
		}
		if m.Iters <= 0 {
			return fmt.Errorf("hotspot iters %d must be positive", m.Iters)
		}
		// The job's WFQ cost, iters·8n² + 4n², must fit an int64, or its
		// tenant's virtual finish time runs backwards. n <= maxMixN keeps
		// 8n² itself far from overflow, so the bound divides safely.
		if sq := int64(m.N) * int64(m.N); int64(m.Iters) > (math.MaxInt64-4*sq)/(8*sq) {
			return fmt.Errorf("hotspot iters %d at n %d overflows the job's WFQ cost", m.Iters, m.N)
		}
	case WorkloadSpMV, WorkloadSort:
		// Any positive size; chunking handles remainders.
	default:
		return fmt.Errorf("unknown workload %q (want gemm, spmv, hotspot or sort)", m.Workload)
	}
	return nil
}
