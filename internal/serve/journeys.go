package serve

import (
	"fmt"

	"repro/internal/journey"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file wires the journey layer (internal/journey) into the serve
// engine: deterministic sampling at admission, causal "queued behind"
// edges, rejection instants, and the export/analyzer accessors.
//
// Everything here is gated on e.jny != nil and observes state the engine
// already computes — no RNG draws, no schedule edges, no event insertions
// outside the trace/metrics observation planes — so a run with journeys
// enabled produces a byte-identical job schedule to one with them off.

// Reject instant names are static strings so the trace stream stays
// allocation-predictable and grep-friendly.
const (
	instantRejectQuota    = "admission-reject:quota"
	instantRejectMinStrip = "admission-reject:min_strip"
	instantRejectBacklog  = "admission-reject:backlog"
)

// admissionTrack is the staging-node lane that carries admission-control
// instants in the exported trace.
const admissionTrack = "admission"

// sampleJourney applies the tenant's deterministic sampling stride and, when
// the job is selected, opens its journey. Called before the queue push so
// Snapshot reflects exactly the jobs this one will wait behind.
func (e *Engine) sampleJourney(t *tenantState, jb *job) {
	t.jnyAcc += e.scn.Journeys.Sample
	if t.jnyAcc < 1 {
		return
	}
	t.jnyAcc--
	var behind []string
	if queued := t.q.Snapshot(); len(queued) > 0 {
		behind = make([]string, 0, len(queued))
		for _, q := range queued {
			behind = append(behind, journey.TraceID(e.scn.Seed, q.tenant, q.id))
		}
	}
	jb.jny = e.jny.Admit(jb.tenant, jb.id, jb.plan.workload, jb.plan.n, jb.arrive, behind)
}

// noteReject records one admission rejection: a reason-labelled counter in
// the tenant's registry and, when tracing is on, an instant on the staging
// node's admission lane. Journeys-gated so runs without the layer keep
// byte-identical metric and trace streams.
func (e *Engine) noteReject(t *tenantState, reason string) {
	if e.jny == nil {
		return
	}
	if t.rejReason == nil {
		t.rejReason = make(map[string]*obs.Counter)
	}
	c := t.rejReason[reason]
	if c == nil {
		c = t.reg.Counter("northup_admission_reject_total",
			"admission rejections by cause (journeys layer)",
			obs.L("tenant", t.spec.Name), obs.L("reason", reason))
		t.rejReason[reason] = c
	}
	c.Inc()
	if e.rec != nil {
		name := instantRejectQuota
		switch reason {
		case rejectMinStrip:
			name = instantRejectMinStrip
		case rejectBacklog:
			name = instantRejectBacklog
		}
		e.rec.Instant(trace.Lane{Node: e.dram.ID, Track: admissionTrack},
			name, e.eng.Now(), int64(t.idx))
	}
}

// journeyFeed is the serve tier's subscriber on the runtime's observation
// stream: it passes each busy-time charge to the journey of the job whose
// proc made it. Structural spans, instants, counters and charges made on
// any other proc (a job's children, callback-driven stream hops) are not
// the job's own busy time and pass by.
type journeyFeed struct {
	jobs map[*sim.Proc]*journey.Job // a running sampled job's root proc -> its journey
}

func (f *journeyFeed) Span(p *sim.Proc, lane trace.Lane, cat trace.Category, name string, start, end sim.Time, value int64) {
	if cat == trace.None {
		return
	}
	if j := f.jobs[p]; j != nil {
		j.NoteSpan(cat, lane, name, start, end, value)
	}
}

func (f *journeyFeed) Instant(trace.Lane, string, sim.Time, int64) {}
func (f *journeyFeed) Counter(trace.Lane, string, sim.Time, int64) {}

// Journeys returns the run's journey recorder, or nil when the scenario did
// not enable the layer.
func (e *Engine) Journeys() *journey.Recorder { return e.jny }

// TailReport decomposes the q-quantile latency of every tenant's completed
// journeys into phase contributions. Nil when journeys are off.
func (e *Engine) TailReport(q float64) *journey.TailReport {
	if e.jny == nil {
		return nil
	}
	return journey.Tail(e.jny.Jobs(), q)
}

// TraceEvents returns the runtime trace ring's retained events plus, when
// journeys are on, the synthesized per-job journey lanes ("job:<trace-id>")
// appended with sequence numbers past the runtime stream's maximum — the
// live ring itself is never touched.
func (e *Engine) TraceEvents() []trace.Event {
	if e.rec == nil {
		return nil
	}
	events := e.rec.Events()
	if e.jny != nil {
		events = append(events, journey.ChromeEvents(e.jny.Jobs(), journey.MaxSeq(events)+1)...)
	}
	return events
}

// TraceNodeLabel names a topology node for the Chrome exporter's process
// metadata ("dram L1"), mirroring northup.TraceNodeLabeler for callers that
// only hold the serve engine.
func (e *Engine) TraceNodeLabel(id int) string {
	if id < 0 || id >= e.tree.NumNodes() {
		return ""
	}
	n := e.tree.Node(id)
	return fmt.Sprintf("%s L%d", n.Mem.Kind(), n.Level)
}

// TraceDropped returns how many events the bounded trace ring discarded.
func (e *Engine) TraceDropped() int64 {
	if e.rec == nil {
		return 0
	}
	return e.rec.Dropped()
}
