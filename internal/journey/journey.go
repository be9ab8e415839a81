// Package journey records deterministic per-job causal journeys for the
// serve tier: every admitted job gets a stable trace ID, and its lifecycle
// becomes an ordered sequence of phase segments — admit-wait, queue-wait,
// dispatch, per-hop staging, kernel, merge, blocked — that partition the
// job's [arrive, done) interval exactly. Phase sums therefore reconcile
// bit-for-bit against the recorded latency, and (at sample rate 1.0) the
// per-category busy totals across all journeys reconcile against the
// runtime's Breakdown, because both are fed by the same charge point
// (the serve tier subscribes to core.Runtime's observation stream and
// passes each charge to the journey of the job whose proc made it).
//
// The layer is observation only. Recording a journey draws no random
// numbers, charges no virtual time, and never touches the engine, so a run
// with journeys enabled executes the byte-identical job schedule of a run
// with them disabled — the serve determinism tests hold it to that.
package journey

import (
	"fmt"
	"hash/fnv"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Reserved phase names. Everything else is derived from the charge's
// category and lane ("stage:node0/io", "kernel:node2", ...), or set
// explicitly via Mark (the serve bodies mark their write-back moves as
// "merge").
const (
	PhaseAdmitWait = "admit-wait"
	PhaseQueueWait = "queue-wait"
	PhaseDispatch  = "dispatch"
	PhaseBlocked   = "blocked"
	PhaseMerge     = "merge"
)

// DefaultMaxSegments bounds one job's waterfall segment list. Phase and
// category totals stay exact past the cap; only the per-segment timeline
// truncates (SegDropped counts what fell off).
const DefaultMaxSegments = 512

// TraceID derives the deterministic identifier of one job from the
// scenario seed, the tenant name and the tenant-local job index — the same
// triple that determines the job's traffic, so the ID is stable across
// runs, machines and exports.
func TraceID(seed int64, tenant string, id int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "northup/%d/%s/%d", seed, tenant, id)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Segment is one contiguous stretch of a job's timeline spent in a single
// phase. Segments are emitted in time order and partition [arrive, done).
type Segment struct {
	Phase   string `json:"phase"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// PhaseTotal aggregates one phase across a job: total time, total bytes
// moved (for staging phases), and the number of raw charges folded in.
// Totals are exact even when the segment list hit its cap.
type PhaseTotal struct {
	Phase string `json:"phase"`
	NS    int64  `json:"ns"`
	Bytes int64  `json:"bytes,omitempty"`
	Count int    `json:"count,omitempty"`
}

// Job is one sampled job's journey. While the job's root proc runs, every
// busy-time charge it makes is passed to NoteSpan, and the cursor-based
// partition turns the charge stream into phases — gaps between charges
// (waiting on device/link contention inside moves is charged; waiting
// between operations is not) become "blocked".
type Job struct {
	TraceID  string
	Tenant   string
	ID       int
	Workload string
	N        int

	Arrive, Start, Done sim.Time
	Failed              bool

	// Behind lists, in queue order, the trace IDs of the jobs that were
	// already waiting in the tenant queue when this job was admitted — the
	// causal upstream of its queue-wait phase.
	Behind []string

	rec      *Recorder
	phases   []PhaseTotal
	phaseIdx map[string]int
	segs     []Segment
	segDrop  int
	maxSegs  int
	cursor   sim.Time
	label    string // Mark override; "" derives the phase from cat+lane
	catBusy  []sim.Time
	finished bool
}

// Mark overrides the phase name of subsequent charges until cleared with
// Mark(""). It is nil-safe so call sites need no sampling guard.
func (j *Job) Mark(label string) {
	if j == nil {
		return
	}
	j.label = label
}

// Dispatched records the queue-to-worker handoff: the zero-length
// admit-wait instant (admission is synchronous at arrival) and the
// [arrive, start) queue-wait segment, and arms the charge cursor.
func (j *Job) Dispatched(start sim.Time) {
	j.Start = start
	j.cursor = start
	j.add(PhaseAdmitWait, j.Arrive, j.Arrive, 0, trace.None)
	j.add(PhaseQueueWait, j.Arrive, start, 0, trace.None)
}

// NoteSpan takes one busy-time charge made on the job's proc. Charges
// arrive in nondecreasing end order on a single proc, so the cursor
// partition is total: gap before the charge -> blocked, the charge itself
// -> its phase, cursor advances to the charge's end.
func (j *Job) NoteSpan(cat trace.Category, lane trace.Lane, name string, start, end sim.Time, value int64) {
	if j.finished {
		return
	}
	if start < j.cursor {
		start = j.cursor // defensive clamp; charges on one proc do not overlap
	}
	if end < start {
		end = start
	}
	if start > j.cursor {
		j.add(PhaseBlocked, j.cursor, start, 0, trace.None)
	}
	j.add(j.phaseFor(cat, lane), start, end, value, cat)
	j.cursor = end
}

// Finish closes the journey at the job's completion instant: any tail gap
// becomes a final blocked segment, so the segments partition [arrive, done)
// exactly and PhaseSum() == Latency() bit-for-bit.
func (j *Job) Finish(done sim.Time, failed bool) {
	if done > j.cursor {
		j.add(PhaseBlocked, j.cursor, done, 0, trace.None)
		j.cursor = done
	}
	j.Done = done
	j.Failed = failed
	j.finished = true
}

// Latency is the job's arrival-to-completion time.
func (j *Job) Latency() sim.Time { return j.Done - j.Arrive }

// PhaseSum is the sum of all phase totals. For a finished journey it equals
// Latency() exactly, by construction of the cursor partition.
func (j *Job) PhaseSum() int64 {
	var sum int64
	for _, pt := range j.phases {
		sum += pt.NS
	}
	return sum
}

// Phases returns the per-phase totals in first-seen order.
func (j *Job) Phases() []PhaseTotal { return j.phases }

// Segments returns the time-ordered phase segments (adjacent same-phase
// charges coalesced), and the count dropped past the segment cap.
func (j *Job) Segments() ([]Segment, int) { return j.segs, j.segDrop }

// CategoryBusy returns the busy time this job charged to one trace
// category — the piece of the runtime Breakdown this job owns.
func (j *Job) CategoryBusy(cat trace.Category) sim.Time {
	if cat < 0 || int(cat) >= len(j.catBusy) {
		return 0
	}
	return j.catBusy[cat]
}

// phaseFor names the phase of one charge from its category and lane.
func (j *Job) phaseFor(cat trace.Category, lane trace.Lane) string {
	if j.label != "" {
		return j.label
	}
	switch cat {
	case trace.Runtime:
		return PhaseDispatch
	case trace.BufferSetup:
		return j.rec.phaseName("alloc", lane)
	case trace.IO, trace.Transfer:
		// Per-hop staging: the lane keys the hop (storage io lane vs the
		// destination's xfer lane), so multi-hop moves split naturally.
		return j.rec.phaseName("stage", lane)
	case trace.GPUCompute:
		return j.rec.phaseName("kernel", lane)
	case trace.CPUCompute:
		return j.rec.phaseName("cpu", lane)
	case trace.PIMCompute:
		return j.rec.phaseName("pim", lane)
	case trace.FPGACompute:
		return j.rec.phaseName("fpga", lane)
	default:
		return j.rec.phaseName("other", lane)
	}
}

// add folds one interval into the phase totals, the category totals and
// the coalesced segment list.
func (j *Job) add(phase string, start, end sim.Time, bytes int64, cat trace.Category) {
	d := int64(end - start)
	i, ok := j.phaseIdx[phase]
	if !ok {
		i = len(j.phases)
		j.phases = append(j.phases, PhaseTotal{Phase: phase})
		j.phaseIdx[phase] = i
	}
	j.phases[i].NS += d
	j.phases[i].Bytes += bytes
	j.phases[i].Count++
	if cat >= 0 && int(cat) < len(j.catBusy) {
		j.catBusy[cat] += end - start
	}
	if n := len(j.segs); n > 0 {
		last := &j.segs[n-1]
		if last.Phase == phase && last.StartNS+last.DurNS == int64(start) {
			last.DurNS += d
			last.Bytes += bytes
			return
		}
	}
	if len(j.segs) >= j.maxSegs {
		j.segDrop++
		return
	}
	j.segs = append(j.segs, Segment{Phase: phase, StartNS: int64(start), DurNS: d, Bytes: bytes})
}

// Recorder owns one run's journeys: it mints jobs at admission, collects
// them at completion (in completion order, matching the serve JobRecord
// log), and interns phase-name strings so the hot path allocates no names
// after first use of a (prefix, lane) pair.
type Recorder struct {
	seed    int64
	maxSegs int
	names   map[phaseKey]string
	jobs    []*Job
	byID    map[string]*Job
}

type phaseKey struct {
	prefix string
	lane   trace.Lane
}

// NewRecorder creates a recorder for one run. maxSegments <= 0 uses
// DefaultMaxSegments.
func NewRecorder(seed int64, maxSegments int) *Recorder {
	if maxSegments <= 0 {
		maxSegments = DefaultMaxSegments
	}
	return &Recorder{
		seed:    seed,
		maxSegs: maxSegments,
		names:   make(map[phaseKey]string),
		byID:    make(map[string]*Job),
	}
}

// Seed returns the scenario seed journeys were recorded under.
func (r *Recorder) Seed() int64 { return r.seed }

// Admit mints the journey of one admitted job. behind lists the trace IDs
// already queued ahead of it.
func (r *Recorder) Admit(tenant string, id int, workload string, n int, arrive sim.Time, behind []string) *Job {
	j := &Job{
		TraceID:  TraceID(r.seed, tenant, id),
		Tenant:   tenant,
		ID:       id,
		Workload: workload,
		N:        n,
		Arrive:   arrive,
		Behind:   behind,
		rec:      r,
		phaseIdx: make(map[string]int),
		maxSegs:  r.maxSegs,
		catBusy:  make([]sim.Time, len(trace.Categories)),
	}
	r.byID[j.TraceID] = j
	return j
}

// Complete files a finished journey, in completion order.
func (r *Recorder) Complete(j *Job) { r.jobs = append(r.jobs, j) }

// Jobs returns the completed journeys in completion order.
func (r *Recorder) Jobs() []*Job { return r.jobs }

// Find returns the journey with the given trace ID, or nil.
func (r *Recorder) Find(traceID string) *Job { return r.byID[traceID] }

// phaseName interns "prefix:lane" ("stage:node0/io", "kernel:node2/gpu").
func (r *Recorder) phaseName(prefix string, lane trace.Lane) string {
	k := phaseKey{prefix: prefix, lane: lane}
	if s, ok := r.names[k]; ok {
		return s
	}
	s := prefix + ":" + lane.String()
	r.names[k] = s
	return s
}
