package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/ops"
	"repro/internal/sim"
)

// This file is the live half of the operations plane: a wall-clock-paced
// driver that slices the deterministic simulation with RunUntil, and an
// HTTP admin handler that reads the engine's state between slices. The
// simulation itself stays single-goroutine — HTTP handlers and the driver
// serialize on one mutex, and handlers only ever read — so pacing and
// serving change nothing about the virtual-time schedule. The same
// scenario and seed produce the same reports whether run flat-out through
// Engine.Run or sliced through Live.RunPaced.

// DefaultSlice is the virtual-time quantum RunPaced executes per step when
// the caller passes zero.
const DefaultSlice = 100 * sim.Millisecond

// Live wraps an Engine for paced execution with a concurrent admin plane.
type Live struct {
	e *Engine

	mu   sync.Mutex
	done bool
	rep  *Report
	err  error
}

// NewLive wraps an unstarted engine.
func NewLive(e *Engine) *Live { return &Live{e: e} }

// Report returns the final report once the run has completed, else nil.
func (l *Live) Report() *Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rep
}

// RunPaced executes the scenario in slices of `slice` virtual time,
// sleeping between slices so virtual time advances at `pace` virtual
// seconds per wall-clock second. pace <= 0 disables the sleeps (the run
// proceeds flat out but still releases the lock between slices, so the
// admin handlers stay responsive). It returns the final report, exactly
// as Engine.Run would have produced for the unpaced run.
func (l *Live) RunPaced(pace float64, slice sim.Time) (*Report, error) {
	if slice <= 0 {
		slice = DefaultSlice
	}
	l.mu.Lock()
	if err := l.e.start(); err != nil {
		l.mu.Unlock()
		return nil, err
	}
	l.mu.Unlock()

	wallStart := time.Now()
	for {
		l.mu.Lock()
		if _, ok := l.e.eng.Peek(); !ok {
			// Queue drained: either every process finished or the engine
			// would have reported a deadlock. Run settles which.
			rep, err := l.settle(l.e.eng.Run())
			l.mu.Unlock()
			return rep, err
		}
		deadline := l.e.eng.Now() + slice
		if err := l.e.eng.RunUntil(deadline); err != nil {
			rep, rerr := l.settle(err)
			l.mu.Unlock()
			return rep, rerr
		}
		now := l.e.eng.Now()
		l.mu.Unlock()

		if pace > 0 {
			wallTarget := time.Duration(float64(now) / pace)
			if ahead := wallTarget - time.Since(wallStart); ahead > 0 {
				time.Sleep(ahead)
			}
		}
	}
}

// settle finishes the run under the held lock: on success it builds the
// final report, on failure it records the engine error. Either way the
// admin plane keeps answering from the terminal state.
func (l *Live) settle(err error) (*Report, error) {
	l.done = true
	if err != nil {
		l.e.detach()
		l.err = fmt.Errorf("serve: scenario %q: %w", l.e.scn.Name, err)
		return nil, l.err
	}
	l.rep = l.e.finish()
	return l.rep, nil
}

// Handler returns the admin-plane HTTP handler:
//
//	/metrics — merged registry in Prometheus text format
//	/healthz — run status, virtual clock, firing-alert count
//	/tenants — per-tenant health: cumulative counts, windowed values,
//	           currently firing alerts
//	/alerts  — the alert timeline so far plus currently firing alerts
//
// All endpoints are read-only snapshots of the simulation between slices.
func (l *Live) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", l.handleMetrics)
	mux.HandleFunc("/healthz", l.handleHealthz)
	mux.HandleFunc("/tenants", l.handleTenants)
	mux.HandleFunc("/alerts", l.handleAlerts)
	return mux
}

func (l *Live) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	l.mu.Lock()
	defer l.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	l.e.MergedRegistry().WritePrometheus(w)
}

// Health is the /healthz document.
type Health struct {
	Status string `json:"status"` // serving, done or error
	NowNS  int64  `json:"now_ns"`
	Firing int    `json:"firing"`
	Error  string `json:"error,omitempty"`
}

func (l *Live) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	l.mu.Lock()
	h := Health{Status: "serving", NowNS: int64(l.e.eng.Now())}
	if l.e.plane != nil {
		h.Firing = len(l.e.plane.Firing())
	}
	if l.done {
		h.Status = "done"
	}
	if l.err != nil {
		h.Status = "error"
		h.Error = l.err.Error()
	}
	l.mu.Unlock()
	writeIndentedJSON(w, h)
}

// TenantHealth is one tenant's entry in the /tenants document. Cumulative
// fields come from the tenant's counters; the Window* fields are the ops
// plane's trailing-window values (zero without the plane).
type TenantHealth struct {
	Name           string            `json:"name"`
	Arrivals       int64             `json:"arrivals"`
	Admitted       int64             `json:"admitted"`
	Rejected       int64             `json:"rejected"`
	Completed      int64             `json:"completed"`
	JobErrors      int64             `json:"job_errors"`
	SLOViolations  int64             `json:"slo_violations"`
	QueueDepth     int64             `json:"queue_depth"`
	InflightBytes  int64             `json:"inflight_bytes"`
	WindowArrivals float64           `json:"window_arrivals,omitempty"`
	WindowP50NS    float64           `json:"window_p50_ns,omitempty"`
	WindowP99NS    float64           `json:"window_p99_ns,omitempty"`
	Firing         []ops.FiringAlert `json:"firing,omitempty"`
}

// TenantsDoc is the /tenants document.
type TenantsDoc struct {
	NowNS   int64          `json:"now_ns"`
	Tenants []TenantHealth `json:"tenants"`
}

func (l *Live) handleTenants(w http.ResponseWriter, _ *http.Request) {
	l.mu.Lock()
	doc := l.tenantsDoc()
	l.mu.Unlock()
	writeIndentedJSON(w, doc)
}

// tenantsDoc snapshots per-tenant health; the caller holds the lock.
func (l *Live) tenantsDoc() TenantsDoc {
	doc := TenantsDoc{NowNS: int64(l.e.eng.Now())}
	for _, t := range l.e.tenants {
		th := TenantHealth{
			Name:          t.spec.Name,
			Arrivals:      t.arrivals.Value(),
			Admitted:      t.admitted.Value(),
			Rejected:      t.rejQuota.Value() + t.rejBacklog.Value(),
			Completed:     t.completed.Value(),
			JobErrors:     t.jobErrors.Value(),
			SLOViolations: t.sloViol.Value(),
			QueueDepth:    int64(t.q.Len()),
			InflightBytes: t.inflight,
		}
		if l.e.plane != nil {
			wdt := l.e.plane.Width()
			tw := l.e.twatch[t.spec.Name]
			th.WindowArrivals = tw.arrivals.Over(wdt)
			th.WindowP50NS = tw.p50.Over(wdt)
			th.WindowP99NS = tw.p99.Over(wdt)
			th.Firing = l.e.plane.FiringFor(t.spec.Name)
		}
		doc.Tenants = append(doc.Tenants, th)
	}
	return doc
}

// AlertsDoc is the /alerts document: every transition so far plus what is
// firing right now.
type AlertsDoc struct {
	NowNS  int64             `json:"now_ns"`
	Firing []ops.FiringAlert `json:"firing,omitempty"`
	Events []ops.AlertEvent  `json:"events"`
}

func (l *Live) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	l.mu.Lock()
	doc := AlertsDoc{NowNS: int64(l.e.eng.Now()), Events: []ops.AlertEvent{}}
	if l.e.plane != nil {
		doc.Firing = l.e.plane.Firing()
		doc.Events = append(doc.Events, l.e.plane.Events()...)
	}
	l.mu.Unlock()
	writeIndentedJSON(w, doc)
}

// writeIndentedJSON renders v as deterministic indented JSON.
func writeIndentedJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
