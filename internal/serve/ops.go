package serve

import (
	"fmt"
	"strconv"

	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file wires the live operations plane (package ops) into the serve
// engine. The plane is built at engine construction — watches over the
// tenant registries and the shared runtime registry, one ops.Rule per
// (alert rule, tenant) pair — and driven by a virtual-time tick chain on
// the simulation engine's callback fast path. Ticks are read-only with
// respect to the job schedule: they sample counters, refresh windows and
// evaluate rules, but never touch queues, quotas or workers, so enabling
// the plane cannot change which job runs when.

// tenantWatch bundles one tenant's windowed handles for rule closures and
// the /tenants health snapshot.
type tenantWatch struct {
	arrivals, admitted, rejected ops.Handle
	completed, errors, sloViol   ops.Handle
	p50, p99, latCount           ops.Handle
	depth, inflight              ops.Handle
}

// initOps builds the plane, its watches, and its rules. Called from New
// when the scenario enables the ops plane; e.rec is already attached to
// the runtime (attribution reads it on rule fire).
func (e *Engine) initOps() error {
	scn := e.scn
	maxWin := scn.Ops.Window
	for i := range scn.Alerts {
		if w := scn.Alerts[i].SlowWindow; w > maxWin {
			maxWin = w
		}
	}
	e.plane = ops.NewPlane(ops.Config{
		Width:     scn.Ops.Window,
		Step:      scn.Ops.Step,
		MaxWindow: maxWin,
	})
	e.twatch = map[string]*tenantWatch{}
	for _, t := range e.tenants {
		e.twatch[t.spec.Name] = e.watchTenant(t)
	}
	e.watchRuntime()
	if err := e.addRules(); err != nil {
		return err
	}
	e.plane.OnFire = e.attributeFire
	return nil
}

// counterRead adapts an obs counter into a watch source.
func counterRead(c *obs.Counter) func() float64 {
	return func() float64 { return float64(c.Value()) }
}

// watchTenant registers the tenant's windowed series: admission-flow
// deltas, latency quantiles, and queue/footprint extremes.
func (e *Engine) watchTenant(t *tenantState) *tenantWatch {
	p := e.plane
	lbl := obs.L("tenant", t.spec.Name)
	w := &tenantWatch{}
	w.arrivals = p.WatchCounter("northup_window_arrivals",
		"arrivals over the trailing window", counterRead(t.arrivals), lbl)
	w.admitted = p.WatchCounter("northup_window_admitted",
		"admissions over the trailing window", counterRead(t.admitted), lbl)
	w.rejected = p.WatchCounter("northup_window_rejected",
		"rejections (all reasons) over the trailing window", func() float64 {
			return float64(t.rejQuota.Value() + t.rejBacklog.Value())
		}, lbl)
	w.completed = p.WatchCounter("northup_window_completed",
		"completions over the trailing window", counterRead(t.completed), lbl)
	w.errors = p.WatchCounter("northup_window_job_errors",
		"job failures over the trailing window", counterRead(t.jobErrors), lbl)
	w.sloViol = p.WatchCounter("northup_window_slo_violations",
		"SLO violations over the trailing window", counterRead(t.sloViol), lbl)
	w.p50 = p.WatchQuantile("northup_window_p50_latency_ns",
		"windowed p50 arrival-to-completion latency", t.latHist, 0.50, lbl)
	w.p99 = p.WatchQuantile("northup_window_p99_latency_ns",
		"windowed p99 arrival-to-completion latency", t.latHist, 0.99, lbl)
	w.latCount = p.WatchHistCount("northup_window_latency_count",
		"latency observations over the trailing window", t.latHist, lbl)
	w.depth = p.WatchGauge("northup_window_queue_depth",
		"max queue depth over the trailing window", func() float64 {
			return t.depthG.Value()
		}, lbl)
	w.inflight = p.WatchGauge("northup_window_inflight_bytes",
		"max staging footprint over the trailing window", func() float64 {
			return t.inflightG.Value()
		}, lbl)
	return w
}

// watchRuntime registers windowed views over the shared runtime registry:
// per-category busy time and per-node moved bytes — the node-level signals
// attribution reports are cross-checked against. Handles resolve through
// the registry's idempotent register path, so the runtime's own lazy
// registration later lands on the same instruments.
func (e *Engine) watchRuntime() {
	p := e.plane
	for _, c := range trace.Categories {
		lbl := obs.L("cat", c.String())
		cc := e.runReg.Counter("northup_busy_ns_total", "virtual busy time per execution category", lbl)
		p.WatchCounter("northup_window_busy_ns",
			"busy time per execution category over the trailing window", counterRead(cc), lbl)
	}
	for _, n := range e.tree.Nodes() {
		lbl := obs.L("node", strconv.Itoa(n.ID))
		mc := e.runReg.Counter("northup_moved_bytes_total", "bytes moved into each node", lbl)
		p.WatchCounter("northup_window_moved_bytes",
			"bytes moved into the node over the trailing window", counterRead(mc), lbl)
	}
}

// addRules expands the scenario's declarative alert rules into ops rules:
// a rule naming a tenant binds to it; a rule without one is instantiated
// for every tenant, subject per tenant.
func (e *Engine) addRules() error {
	for i := range e.scn.Alerts {
		r := &e.scn.Alerts[i]
		if r.Tenant != "" {
			if err := e.addRuleFor(r, r.Tenant); err != nil {
				return err
			}
			continue
		}
		for _, t := range e.tenants {
			if err := e.addRuleFor(r, t.spec.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// addRuleFor binds one alert rule to one tenant: the metric selector
// becomes a value closure over the tenant's windowed handles.
func (e *Engine) addRuleFor(r *AlertRule, tenant string) error {
	w := e.twatch[tenant]
	var spec *Tenant
	for _, t := range e.tenants {
		if t.spec.Name == tenant {
			spec = t.spec
		}
	}
	if w == nil || spec == nil {
		return fmt.Errorf("serve: alert rule %q names unknown tenant %q", r.Name, tenant)
	}
	var value func(width sim.Time) float64
	switch r.Metric {
	case MetricSLOBurn:
		budget := 1 - spec.SLOTarget
		value = func(width sim.Time) float64 {
			done := w.completed.Over(width)
			if done <= 0 {
				return 0
			}
			return (w.sloViol.Over(width) / done) / budget
		}
	case MetricRejectRatio:
		value = func(width sim.Time) float64 {
			arr := w.arrivals.Over(width)
			if arr <= 0 {
				return 0
			}
			return w.rejected.Over(width) / arr
		}
	case MetricErrorRatio:
		value = func(width sim.Time) float64 {
			errs := w.errors.Over(width)
			total := errs + w.completed.Over(width)
			if total <= 0 {
				return 0
			}
			return errs / total
		}
	case MetricP99:
		value = w.p99.Over
	case MetricQueueDepth:
		value = w.depth.Over
	default:
		return fmt.Errorf("serve: alert rule %q has unknown metric %q", r.Name, r.Metric)
	}
	e.ruleFast[r.Name] = r.FastWindow
	return e.plane.AddRule(ops.Rule{
		Name:      r.Name,
		Subject:   tenant,
		Severity:  r.Severity,
		Threshold: r.Threshold,
		Fast:      r.FastWindow,
		Slow:      r.SlowWindow,
		Value:     value,
	})
}

// attributeFire is the plane's OnFire hook: attach a top-K health report
// covering the rule's fast burn window, read from the trace recorder.
func (e *Engine) attributeFire(ev *ops.AlertEvent) {
	if e.rec == nil {
		return
	}
	end := sim.Time(ev.TNS)
	start := end - e.ruleFast[ev.Rule]
	if start < 0 {
		start = 0
	}
	ev.Attribution = ops.Attribute(e.rec.Events(), start, end, e.scn.Ops.TopK)
	if e.jny != nil {
		// With journeys on, carry the subject tenant's worst latency
		// exemplars so a page links straight to concrete job waterfalls.
		for _, t := range e.tenants {
			if t.spec.Name != ev.Subject {
				continue
			}
			for _, x := range t.latHist.TopExemplars(e.scn.Ops.TopK) {
				ev.Exemplars = append(ev.Exemplars, ops.Exemplar{TraceID: x.TraceID, ValueNS: x.Value})
			}
			break
		}
	}
}

// armOpsTicks schedules the plane's evaluation chain on the engine's
// inline-callback fast path: one tick at t=0 (the baseline sample), then
// every Step while arrivals or admitted work remain, plus a final tick at
// drain time issued by Run. The runtime's registry reads its stat sources
// through, so windows sample current values.
func (e *Engine) armOpsTicks() {
	step := e.plane.Step()
	var tick func()
	tick = func() {
		e.plane.Tick(e.eng.Now())
		if e.arrivalsOpen > 0 || e.outstanding > 0 {
			e.eng.After(step, tick)
		}
	}
	e.eng.At(0, tick)
}

// Plane returns the live operations plane, nil when the scenario does not
// enable it.
func (e *Engine) Plane() *ops.Plane { return e.plane }

// AlertEvents returns the deterministic alert timeline (nil without the
// ops plane).
func (e *Engine) AlertEvents() []ops.AlertEvent {
	if e.plane == nil {
		return nil
	}
	return e.plane.Events()
}

// WindowSeries returns every windowed series the plane recorded, in watch
// registration order (nil without the ops plane).
func (e *Engine) WindowSeries() []obs.Series {
	if e.plane == nil {
		return nil
	}
	return e.plane.Series()
}
