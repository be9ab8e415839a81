package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/ops"
	"repro/internal/sim"
)

// ReportSchema versions the serve report JSON.
const ReportSchema = "northup-serve/v1"

// TenantReport is one tenant's served-traffic summary.
type TenantReport struct {
	Name          string           `json:"name"`
	Arrivals      int64            `json:"arrivals"`
	Admitted      int64            `json:"admitted"`
	Rejected      map[string]int64 `json:"rejected,omitempty"`
	Completed     int64            `json:"completed"`
	JobErrors     int64            `json:"job_errors"`
	SLOViolations int64            `json:"slo_violations"`
	P50NS         int64            `json:"p50_ns"`
	P99NS         int64            `json:"p99_ns"`
	MaxNS         int64            `json:"max_ns"`
	MeanNS        int64            `json:"mean_ns"`
	// ThroughputJPS is completions per simulated second over the full run.
	ThroughputJPS float64 `json:"throughput_jps"`
}

// EngineStats is the simulation engine's cost profile in the report. The
// counts are deterministic (same scenario+seed, same counts); the wall
// fields depend on the host and appear only with RunOptions.WallStats, so
// deterministic outputs never carry them.
type EngineStats struct {
	Events       int64   `json:"events"`
	Callbacks    int64   `json:"callbacks"`
	Procs        int64   `json:"procs"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	WallMS       float64 `json:"wall_ms,omitempty"`
}

// Report summarizes one scenario run.
type Report struct {
	Schema     string         `json:"schema"`
	Scenario   string         `json:"scenario"`
	Seed       int64          `json:"seed"`
	Phantom    bool           `json:"phantom"`
	ElapsedNS  int64          `json:"elapsed_ns"`
	Tenants    []TenantReport `json:"tenants"`
	TotalJobs  int64          `json:"total_jobs"`
	TotalBytes int64          `json:"total_work_bytes"`
	// Alerts is the ops plane's deterministic fire/resolve timeline
	// (absent when the scenario does not enable the plane).
	Alerts []ops.AlertEvent `json:"alerts,omitempty"`
	// Engine is the simulation engine's self-measurement.
	Engine *EngineStats `json:"engine,omitempty"`
}

// buildReport snapshots per-tenant metrics after the engine drains.
func (e *Engine) buildReport() *Report {
	rep := &Report{
		Schema:     ReportSchema,
		Scenario:   e.scn.Name,
		Seed:       e.scn.Seed,
		Phantom:    e.opts.Phantom,
		ElapsedNS:  int64(e.eng.Now()),
		TotalBytes: e.workBytes,
	}
	elapsedSec := float64(e.eng.Now()) / float64(sim.Second)
	for _, t := range e.tenants {
		tr := TenantReport{
			Name:          t.spec.Name,
			Arrivals:      t.arrivals.Value(),
			Admitted:      t.admitted.Value(),
			Completed:     t.completed.Value(),
			JobErrors:     t.jobErrors.Value(),
			SLOViolations: t.sloViol.Value(),
			P50NS:         t.latHist.Quantile(0.50),
			P99NS:         t.latHist.Quantile(0.99),
			MaxNS:         t.latHist.Max(),
		}
		if n := t.latHist.Count(); n > 0 {
			tr.MeanNS = t.latHist.Sum() / n
		}
		if rq, rb := t.rejQuota.Value(), t.rejBacklog.Value(); rq+rb > 0 {
			tr.Rejected = map[string]int64{}
			if rq > 0 {
				tr.Rejected["quota"] = rq
			}
			if rb > 0 {
				tr.Rejected["backlog"] = rb
			}
		}
		if elapsedSec > 0 {
			tr.ThroughputJPS = float64(tr.Completed) / elapsedSec
		}
		rep.TotalJobs += tr.Completed
		rep.Tenants = append(rep.Tenants, tr)
	}
	rep.Alerts = e.AlertEvents()
	st := e.eng.Stats()
	rep.Engine = &EngineStats{Events: st.Events, Callbacks: st.Callbacks, Procs: st.Procs}
	if e.opts.WallStats {
		rep.Engine.EventsPerSec = st.EventsPerSec()
		rep.Engine.WallMS = float64(st.Wall.Nanoseconds()) / 1e6
	}
	return rep
}

// WriteJSON writes the report as indented, key-stable JSON (maps render
// with sorted keys), byte-identical across runs of the same scenario+seed.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// String renders the report as a fixed-width table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scenario %s (seed %d, %s) — %s simulated\n",
		r.Scenario, r.Seed, modeName(r.Phantom), fmtDur(r.ElapsedNS))
	fmt.Fprintf(&sb, "%-12s %8s %8s %8s %8s %6s %10s %10s %10s\n",
		"tenant", "arrive", "admit", "reject", "done", "slo!", "p50", "p99", "max")
	for _, t := range r.Tenants {
		var rej int64
		for _, v := range t.Rejected {
			rej += v
		}
		fmt.Fprintf(&sb, "%-12s %8d %8d %8d %8d %6d %10s %10s %10s\n",
			t.Name, t.Arrivals, t.Admitted, rej, t.Completed, t.SLOViolations,
			fmtDur(t.P50NS), fmtDur(t.P99NS), fmtDur(t.MaxNS))
	}
	return sb.String()
}

func modeName(phantom bool) string {
	if phantom {
		return "phantom"
	}
	return "functional"
}

func fmtDur(ns int64) string {
	switch {
	case ns >= int64(sim.Second):
		return fmt.Sprintf("%.2fs", float64(ns)/float64(sim.Second))
	case ns >= int64(sim.Millisecond):
		return fmt.Sprintf("%.2fms", float64(ns)/float64(sim.Millisecond))
	case ns >= int64(sim.Microsecond):
		return fmt.Sprintf("%.2fµs", float64(ns)/float64(sim.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
