package trace

import (
	"fmt"

	"repro/internal/sim"
)

// This file implements the event-level half of the package: where Breakdown
// answers "how much time went where in total", the Recorder answers "what
// happened when, and on which lane". Every simulated activity — transfers,
// I/O, kernel launches, allocations, cache fills, fault retries — is a span
// with a start and duration; steals, evictions and faults are instants;
// queue depths are counter samples. The stream is what the Chrome-trace
// exporter, the per-node metrics and the critical-path walker consume, and
// it is the single observation path profile-guided scheduling feeds from.
//
// The recorder is deterministic (events carry virtual time only), bounded
// (a ring buffer of configurable capacity; the oldest events are dropped
// and counted once it fills), and costs nothing when absent: the runtime
// guards every emission behind a nil check and uses only static name
// strings, so a disabled run performs no tracing work and no allocations.
//
// The ring is a list of fixed-size chunks of compact records, allocated
// one at a time as the ring fills and overwritten in place once it wraps,
// so no emission copies or clears what is already recorded and a large
// capacity costs only what is recorded. A record is pointer-free (the
// collector never scans a chunk): times, value, kind and category, with
// the lane and name interned into per-recorder tables. Repeats are found
// by short scans, not hash probes: a node's first few tracks and the last
// few names looked up; only a miss probes a table's map. A record's
// sequence number is its position in the emission stream and is not
// stored. Events materializes the records as Events, the form every
// consumer reads.

// NoNode is the Lane.Node of activities not tied to a tree node (runtime
// bookkeeping, retry backoff).
const NoNode = -1

// Standard lane tracks. A Lane is (tree node, track); these constants name
// the tracks the runtime emits on. Worker-private lanes (per-workgroup
// task execution) use the worker's process name as the track instead.
const (
	TrackXfer    = "xfer"    // memory-to-memory transfers landing on the node
	TrackIO      = "io"      // file I/O on a storage node
	TrackAlloc   = "alloc"   // buffer setup
	TrackGPU     = "gpu"     // GPU kernel execution
	TrackCPU     = "cpu"     // CPU compute
	TrackPIM     = "pim"     // processor-in-memory compute
	TrackFPGA    = "fpga"    // FPGA pipeline execution
	TrackCache   = "cache"   // staging-cache hits/misses/evictions
	TrackRuntime = "runtime" // bookkeeping and retry backoff
	TrackTask    = "task"    // application-level task spans (chunks, stages)
	TrackQueue   = "queue"   // work-queue pops/steals/depth samples
	TrackStream  = "stream"  // streamed-move sub-chunk hops and ring telemetry
)

// Lane identifies one horizontal track of the execution timeline: a tree
// node plus an activity class on it. In the Chrome export a node becomes a
// process and each of its tracks a thread, so a run renders as a Gantt
// chart with distinct lanes per memory node and processor.
type Lane struct {
	// Node is the topo tree node ID, or NoNode.
	Node int
	// Track is the activity class within the node (TrackXfer, TrackGPU,
	// ... or a worker name).
	Track string
}

// String renders the lane as "node3/gpu".
func (l Lane) String() string {
	if l.Node == NoNode {
		return l.Track
	}
	return fmt.Sprintf("node%d/%s", l.Node, l.Track)
}

// EventKind distinguishes spans, instants and counter samples.
type EventKind uint8

const (
	// KindSpan is a completed activity with a start and a duration.
	KindSpan EventKind = iota
	// KindInstant is a point event (a steal, an eviction, a fault).
	KindInstant
	// KindCounter is a sampled value (queue depth).
	KindCounter
)

// None is the category of events that do not charge busy time: structural
// task spans (which would double-count the compute and transfer spans they
// contain), instants, and counters.
const None Category = -1

// Event is one element of the trace stream.
type Event struct {
	// Kind says whether Start/Dur describe a span, an instant, or a
	// counter sample.
	Kind EventKind
	// Cat is the busy-time category a span was charged to, or None.
	Cat Category
	// Name labels the event ("move", "kernel", "steal", ...). Emitters use
	// static strings so disabled tracing allocates nothing.
	Name string
	// Lane is the timeline track the event belongs to.
	Lane Lane
	// Start is the span start, or the instant/sample timestamp.
	Start sim.Time
	// Dur is the span duration (zero for instants and counters).
	Dur sim.Time
	// Value carries the span's payload bytes, the counter's sampled value,
	// or an emitter-specific detail (queue index, task size).
	Value int64
	// Seq is the emission sequence number, the deterministic tiebreaker
	// for events sharing a timestamp.
	Seq uint64
}

// End returns Start+Dur.
func (e Event) End() sim.Time { return e.Start + e.Dur }

// DefaultMaxEvents is the ring capacity when Options leaves it zero:
// enough for the repository's demo workloads without unbounded growth.
const DefaultMaxEvents = 1 << 19

// Options configures a Recorder.
type Options struct {
	// MaxEvents bounds the ring buffer; once full, the oldest events are
	// dropped (and counted in Dropped). Zero or negative selects
	// DefaultMaxEvents.
	MaxEvents int
}

// chunkLen is the number of records in one ring chunk (the last chunk is
// cut so the ring holds exactly MaxEvents).
const chunkLen = 4096

// maxDirChunks bounds the chunk directory reserved at the first emission:
// a ring of up to that many chunks never regrows it, and a huge MaxEvents
// reserves no more than that; a larger ring grows it by append.
const maxDirChunks = 1024

// record is one retained event in compact form. Category is a small enum,
// so int32 holds it exactly.
type record struct {
	start, dur sim.Time
	value      int64
	lane, name uint32
	cat        int32
	kind       EventKind
}

// ref is an entry of an intern table's short list: a track or a name and
// its ID.
type ref struct {
	s  string
	id uint32
}

// The intern tables scan short lists of shortList entries before their
// maps: the first tracks of each node in [NoNode, maxListedNode), and the
// names looked up last.
const (
	shortList     = 8
	maxListedNode = 1024
)

// Recorder accumulates the event stream of a run. It must be driven from
// the single simulation goroutine (like every other simulation structure)
// and therefore needs no locking.
type Recorder struct {
	max    int
	chunks [][]record // allocated as the ring fills; kept by Reset
	cur    []record   // chunks[ci], the chunk being written
	ci     int        // index of cur, -1 before the first emission
	pos    int        // next slot in cur
	seq    uint64     // events emitted since Reset; event k is in slot k mod max
	busy   [numCategories]sim.Time

	// Intern tables: lanes and names by ID, the maps holding every one,
	// and the short lists scanned first. byNode[node+1] lists a node's
	// first tracks; recent holds the last names looked up, and next is
	// the entry a miss replaces.
	lanes   []Lane
	names   []string
	laneIDs map[Lane]uint32
	nameIDs map[string]uint32
	byNode  [][]ref
	recent  []ref
	next    int
}

// NewRecorder returns an empty recorder with the given bounds.
func NewRecorder(o Options) *Recorder {
	max := o.MaxEvents
	if max <= 0 {
		max = DefaultMaxEvents
	}
	return &Recorder{max: max, ci: -1}
}

// Span records a completed activity on lane covering [start, end). Spans
// with a real category also accumulate into the recorder's own per-category
// busy totals, which stay exact even when the ring drops events — that is
// what the event-vs-Breakdown equality check audits.
func (r *Recorder) Span(lane Lane, cat Category, name string, start, end sim.Time, value int64) {
	if end < start {
		panic(fmt.Sprintf("trace: span %q on %v ends (%v) before it starts (%v)", name, lane, end, start))
	}
	if cat >= 0 && cat < numCategories {
		r.busy[cat] += end - start
	}
	r.emit(KindSpan, cat, lane, name, start, end-start, value)
}

// Instant records a point event on lane at time t.
func (r *Recorder) Instant(lane Lane, name string, t sim.Time, value int64) {
	r.emit(KindInstant, None, lane, name, t, 0, value)
}

// Counter records a sampled value on lane at time t.
func (r *Recorder) Counter(lane Lane, name string, t sim.Time, value int64) {
	r.emit(KindCounter, None, lane, name, t, 0, value)
}

// emit writes the event into the next slot, overwriting the oldest once
// the ring is full.
func (r *Recorder) emit(kind EventKind, cat Category, lane Lane, name string, start, dur sim.Time, value int64) {
	if r.pos == len(r.cur) {
		r.nextChunk()
	}
	r.cur[r.pos] = record{start: start, dur: dur, value: value,
		lane: r.laneID(lane), name: r.nameID(name), cat: int32(cat), kind: kind}
	r.pos++
	r.seq++
}

// nextChunk moves to the following chunk, allocating it on the ring's
// first pass and wrapping to the first chunk at the end.
func (r *Recorder) nextChunk() {
	r.ci++
	if r.ci*chunkLen >= r.max {
		r.ci = 0
	}
	if r.ci == len(r.chunks) {
		if r.chunks == nil {
			r.chunks = make([][]record, 0, min((r.max+chunkLen-1)/chunkLen, maxDirChunks))
		}
		r.chunks = append(r.chunks, make([]record, min(chunkLen, r.max-r.ci*chunkLen)))
	}
	r.cur = r.chunks[r.ci]
	r.pos = 0
}

// laneID interns lane. A node carries a few tracks, so scanning its list
// finds a repeat sooner than a map probe would.
func (r *Recorder) laneID(l Lane) uint32 {
	n := l.Node + 1
	listed := n >= 0 && n < maxListedNode
	if listed && n < len(r.byNode) {
		for _, t := range r.byNode[n] {
			if t.s == l.Track {
				return t.id
			}
		}
	}
	id, ok := r.laneIDs[l]
	if !ok {
		if r.laneIDs == nil {
			r.laneIDs = map[Lane]uint32{}
		}
		id = uint32(len(r.lanes))
		r.lanes = append(r.lanes, l)
		r.laneIDs[l] = id
	}
	if listed {
		if n >= len(r.byNode) {
			r.byNode = append(r.byNode, make([][]ref, n+1-len(r.byNode))...)
		}
		if len(r.byNode[n]) < shortList {
			r.byNode[n] = append(r.byNode[n], ref{l.Track, id})
		}
	}
	return id
}

// nameID interns name. Emitters cycle through a few static names, so the
// recent list nearly always holds it; a miss consults the full table and
// replaces the oldest recent entry.
func (r *Recorder) nameID(name string) uint32 {
	for _, e := range r.recent {
		if e.s == name {
			return e.id
		}
	}
	id, ok := r.nameIDs[name]
	if !ok {
		if r.nameIDs == nil {
			r.nameIDs = map[string]uint32{}
		}
		id = uint32(len(r.names))
		r.names = append(r.names, name)
		r.nameIDs[name] = id
	}
	if len(r.recent) < shortList {
		r.recent = append(r.recent, ref{name, id})
	} else {
		r.recent[r.next] = ref{name, id}
		r.next = (r.next + 1) % shortList
	}
	return id
}

// Len returns the number of retained events.
func (r *Recorder) Len() int { return int(min(r.seq, uint64(r.max))) }

// Dropped returns how many events the bounded ring discarded.
func (r *Recorder) Dropped() int64 { return int64(r.seq) - int64(r.Len()) }

// CategoryBusy returns the busy time accumulated by spans of the category,
// including spans the ring has since dropped.
func (r *Recorder) CategoryBusy(c Category) sim.Time {
	if c < 0 || c >= numCategories {
		return 0
	}
	return r.busy[c]
}

// slot returns the record in ring slot s.
func (r *Recorder) slot(s int) *record { return &r.chunks[s/chunkLen][s%chunkLen] }

// event materializes event seq, which must be retained.
func (r *Recorder) event(seq uint64) Event {
	rec := r.slot(int(seq % uint64(r.max)))
	return Event{Kind: rec.kind, Cat: Category(rec.cat), Name: r.names[rec.name],
		Lane: r.lanes[rec.lane], Start: rec.start, Dur: rec.dur, Value: rec.value, Seq: seq}
}

// Events returns the retained events in emission order (completion order
// for spans). The slice is a copy; callers may sort it freely.
func (r *Recorder) Events() []Event {
	out := make([]Event, r.Len())
	first := r.seq - uint64(len(out))
	for i := range out {
		out[i] = r.event(first + uint64(i))
	}
	return out
}

// Window returns the earliest start and latest end over the retained
// events, the default analysis window of the trace tools. ok is false for
// an empty recorder.
func (r *Recorder) Window() (start, end sim.Time, ok bool) {
	n := r.Len()
	if n == 0 {
		return 0, 0, false
	}
	// The retained events fill slots [0, n) in some rotation.
	first := r.slot(0)
	start, end = first.start, first.start+first.dur
	for s := 1; s < n; s++ {
		rec := r.slot(s)
		start = min(start, rec.start)
		end = max(end, rec.start+rec.dur)
	}
	return start, end, true
}

// Reset clears the ring, counters and totals between measured phases. The
// chunks and intern tables are kept for the next phase.
func (r *Recorder) Reset() {
	r.cur, r.ci, r.pos = nil, -1, 0
	r.seq = 0
	r.busy = [numCategories]sim.Time{}
}

// ParseCategory inverts Category.String; ok is false for labels that are
// not busy-time categories ("task", "instant", ...).
func ParseCategory(s string) (Category, bool) {
	for _, c := range Categories {
		if c.String() == s {
			return c, true
		}
	}
	return None, false
}
