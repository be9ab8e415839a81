package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sim"
)

// This file writes and reads the Chrome trace_event JSON format (the
// "JSON Array Format" both chrome://tracing and Perfetto load): each tree
// node becomes a process, each of its lanes a thread, so a run renders as
// a Gantt chart of per-node timelines — the view that makes multi-stage
// transfer overlap (paper Fig. 5) visible instead of inferred.
//
// The writer is deterministic byte for byte: lanes are sorted, events are
// sorted by (start, emission sequence), floats are formatted from integer
// nanoseconds, and no map iteration order leaks into the output. Two runs
// of the same deterministic simulation therefore export identical files.

// ChromeExportOptions customizes the export.
type ChromeExportOptions struct {
	// NodeLabel names a tree node in the process metadata (e.g.
	// "node1(dram,L1)"). Nil falls back to "node<id>"; NoNode is always
	// labelled "runtime".
	NodeLabel func(node int) string

	// DroppedEvents is the recorder's Dropped() count at export time. It is
	// written into the file as metadata (droppedMetaName) so a saved trace
	// carries its own completeness: ValidateChromeTrace fails a trace whose
	// ring overflowed, instead of analyses silently running on a truncated
	// event stream.
	DroppedEvents int64
}

// droppedMetaName is the metadata event name carrying the ring's drop
// count through the trace file.
const droppedMetaName = "northup_dropped_events"

// catLabel is the "cat" field of an exported event.
func catLabel(ev Event) string {
	switch {
	case ev.Kind == KindInstant:
		return "instant"
	case ev.Kind == KindCounter:
		return "counter"
	case ev.Cat >= 0 && ev.Cat < numCategories:
		return ev.Cat.String()
	default:
		return "task"
	}
}

// tsMicros renders virtual nanoseconds as the microsecond float the
// trace_event format expects, exactly (three decimals cover nanosecond
// precision) and deterministically.
func tsMicros(t sim.Time) string {
	neg := ""
	if t < 0 {
		neg, t = "-", -t
	}
	return fmt.Sprintf("%s%d.%03d", neg, t/1000, t%1000)
}

// chromePID maps a lane node to an export process ID (pid 0 is the
// node-less runtime pseudo-process).
func chromePID(node int) int {
	if node == NoNode {
		return 0
	}
	return node + 1
}

// WriteChromeTrace writes the events as trace_event JSON loadable by
// Perfetto (https://ui.perfetto.dev) and chrome://tracing.
func WriteChromeTrace(w io.Writer, events []Event, opt ChromeExportOptions) error {
	// Lane inventory: tid per (node, track), assigned in sorted order so
	// the mapping is independent of emission order.
	lanes := map[Lane]bool{}
	for _, ev := range events {
		lanes[ev.Lane] = true
	}
	ordered := make([]Lane, 0, len(lanes))
	for l := range lanes {
		ordered = append(ordered, l)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Node != ordered[j].Node {
			return ordered[i].Node < ordered[j].Node
		}
		return ordered[i].Track < ordered[j].Track
	})
	tids := make(map[Lane]int, len(ordered))
	nextTID := map[int]int{} // per pid
	for _, l := range ordered {
		pid := chromePID(l.Node)
		nextTID[pid]++
		tids[l] = nextTID[pid]
	}

	sorted := append([]Event(nil), events...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].Seq < sorted[j].Seq
	})

	bw := &errWriter{w: w}
	bw.printf("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")
	first := true
	comma := func() {
		if !first {
			bw.printf(",")
		}
		first = false
	}

	// Completeness metadata: always present, so a reader can distinguish
	// "no drops" from "exporter predates drop accounting".
	comma()
	bw.printf(`{"ph":"M","pid":0,"name":%s,"args":{"value":%d}}`,
		jsonString(droppedMetaName), opt.DroppedEvents)

	// Metadata: process and thread names, in lane order.
	seenPID := map[int]bool{}
	for _, l := range ordered {
		pid := chromePID(l.Node)
		if !seenPID[pid] {
			seenPID[pid] = true
			label := "runtime"
			if l.Node != NoNode {
				if opt.NodeLabel != nil {
					label = opt.NodeLabel(l.Node)
				} else {
					label = fmt.Sprintf("node%d", l.Node)
				}
			}
			comma()
			bw.printf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`,
				pid, jsonString(label))
			comma()
			bw.printf(`{"ph":"M","pid":%d,"name":"process_sort_index","args":{"sort_index":%d}}`,
				pid, pid)
		}
		comma()
		bw.printf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			pid, tids[l], jsonString(l.Track))
	}

	for _, ev := range sorted {
		pid, tid := chromePID(ev.Lane.Node), tids[ev.Lane]
		comma()
		switch ev.Kind {
		case KindSpan:
			bw.printf(`{"name":%s,"cat":%s,"ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":{"value":%d}}`,
				jsonString(ev.Name), jsonString(catLabel(ev)), tsMicros(ev.Start), tsMicros(ev.Dur),
				pid, tid, ev.Value)
		case KindInstant:
			bw.printf(`{"name":%s,"cat":"instant","ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d,"args":{"value":%d}}`,
				jsonString(ev.Name), tsMicros(ev.Start), pid, tid, ev.Value)
		case KindCounter:
			bw.printf(`{"name":%s,"cat":"counter","ph":"C","ts":%s,"pid":%d,"tid":%d,"args":{%s:%d}}`,
				jsonString(ev.Name), tsMicros(ev.Start), pid, tid, jsonString(ev.Name), ev.Value)
		}
	}
	bw.printf("]}\n")
	return bw.err
}

// jsonString renders s as a JSON string literal.
func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// errWriter latches the first write error so the export loop stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (b *errWriter) printf(format string, args ...interface{}) {
	if b.err != nil {
		return
	}
	_, b.err = fmt.Fprintf(b.w, format, args...)
}

// ParsedTrace is a trace file read back into analyzable form.
type ParsedTrace struct {
	// Events are the reconstructed span/instant/counter events, in file
	// order (Seq reassigned sequentially).
	Events []Event
	// NodeLabels maps tree node IDs to the exported process names.
	NodeLabels map[int]string
	// Dropped is the recorder's drop count carried in the file's metadata
	// (0 for files written before drop accounting, and for complete traces).
	Dropped int64
}

// jsonEvent mirrors one trace_event entry for decoding.
type jsonEvent struct {
	Name string                     `json:"name"`
	Cat  string                     `json:"cat"`
	Ph   string                     `json:"ph"`
	TS   *float64                   `json:"ts"`
	Dur  *float64                   `json:"dur"`
	PID  int                        `json:"pid"`
	TID  int                        `json:"tid"`
	Args map[string]json.RawMessage `json:"args"`
}

// jsonTrace mirrors the file's top-level object.
type jsonTrace struct {
	TraceEvents []jsonEvent `json:"traceEvents"`
}

// microsToTime converts a trace_event microsecond float back to integer
// nanoseconds, rounding to the nearest. ok is false when the magnitude is
// 2^63 ns or more, which no sim.Time holds.
func microsToTime(us float64) (t sim.Time, ok bool) {
	if us < 0 {
		t, ok = microsToTime(-us)
		return -t, ok
	}
	ns := us*1000 + 0.5
	if ns >= 1<<63 {
		return 0, false
	}
	return sim.Time(ns), true
}

// eventTimes converts event i's ts and, for a complete event, its dur to
// nanoseconds, refusing a start, duration or end that has no sim.Time.
func eventTimes(i int, je jsonEvent) (start, dur sim.Time, err error) {
	start, ok := microsToTime(*je.TS)
	if !ok {
		return 0, 0, fmt.Errorf("trace: event %d (%q): ts %v us is outside the int64 nanosecond range", i, je.Name, *je.TS)
	}
	if je.Ph != "X" || je.Dur == nil {
		return start, 0, nil
	}
	if dur, ok = microsToTime(*je.Dur); !ok {
		return 0, 0, fmt.Errorf("trace: event %d (%q): dur %v us is outside the int64 nanosecond range", i, je.Name, *je.Dur)
	}
	if end := start + dur; dur > 0 && end < start || dur < 0 && end > start {
		return 0, 0, fmt.Errorf("trace: event %d (%q): ts %v + dur %v us ends outside the int64 nanosecond range",
			i, je.Name, *je.TS, *je.Dur)
	}
	return start, dur, nil
}

// ParseChromeTrace reads trace_event JSON written by WriteChromeTrace (or
// anything structurally compatible) back into events, so a saved trace can
// be summarised offline by northup-trace.
func ParseChromeTrace(data []byte) (*ParsedTrace, error) {
	var raw jsonTrace
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("trace: parsing trace_event JSON: %w", err)
	}
	pt := &ParsedTrace{NodeLabels: map[int]string{}}
	threadNames := map[[2]int]string{} // (pid, tid) -> track
	var seq uint64
	for i, je := range raw.TraceEvents {
		switch je.Ph {
		case "M":
			var name string
			if rawName, ok := je.Args["name"]; ok {
				_ = json.Unmarshal(rawName, &name)
			}
			switch je.Name {
			case "process_name":
				if je.PID > 0 {
					pt.NodeLabels[je.PID-1] = name
				}
			case "thread_name":
				threadNames[[2]int{je.PID, je.TID}] = name
			case droppedMetaName:
				if rawV, ok := je.Args["value"]; ok {
					_ = json.Unmarshal(rawV, &pt.Dropped)
				}
			}
		case "X", "i", "I", "C":
			if je.TS == nil {
				return nil, fmt.Errorf("trace: event %d (%q) has no ts", i, je.Name)
			}
			lane := Lane{Node: je.PID - 1, Track: threadNames[[2]int{je.PID, je.TID}]}
			if lane.Track == "" {
				lane.Track = fmt.Sprintf("tid%d", je.TID)
			}
			start, dur, err := eventTimes(i, je)
			if err != nil {
				return nil, err
			}
			ev := Event{Name: je.Name, Lane: lane, Start: start, Dur: dur, Cat: None, Seq: seq}
			seq++
			switch je.Ph {
			case "X":
				ev.Kind = KindSpan
				if c, ok := ParseCategory(je.Cat); ok {
					ev.Cat = c
				}
				if rawV, ok := je.Args["value"]; ok {
					_ = json.Unmarshal(rawV, &ev.Value)
				}
			case "i", "I":
				ev.Kind = KindInstant
				if rawV, ok := je.Args["value"]; ok {
					_ = json.Unmarshal(rawV, &ev.Value)
				}
			case "C":
				ev.Kind = KindCounter
				if rawV, ok := je.Args[je.Name]; ok {
					_ = json.Unmarshal(rawV, &ev.Value)
				}
			}
			pt.Events = append(pt.Events, ev)
		default:
			// Other phases (flow, async, ...) are valid trace_event content
			// we simply do not produce; skip them.
		}
	}
	return pt, nil
}

// ValidateChromeTrace checks that data is structurally valid trace_event
// JSON of the subset this package writes: a traceEvents array whose entries
// carry a known phase, timestamps on all timed phases, non-negative
// durations, times whose nanoseconds fit in an int64, and thread metadata
// for every lane that events reference.
// It returns a descriptive error for the first violation.
func ValidateChromeTrace(data []byte) error {
	var raw jsonTrace
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if len(raw.TraceEvents) == 0 {
		return fmt.Errorf("trace: empty traceEvents array")
	}
	known := map[string]bool{"M": true, "X": true, "i": true, "I": true, "C": true}
	threads := map[[2]int]bool{}
	for _, je := range raw.TraceEvents {
		if je.Ph != "M" {
			continue
		}
		switch je.Name {
		case "thread_name":
			threads[[2]int{je.PID, je.TID}] = true
		case droppedMetaName:
			// An incomplete trace is an invalid trace: the ring overflowed
			// and analyses would silently run on a truncated event stream.
			var dropped int64
			if rawV, ok := je.Args["value"]; ok {
				_ = json.Unmarshal(rawV, &dropped)
			}
			if dropped > 0 {
				return fmt.Errorf("trace: incomplete: ring dropped %d event(s); raise the recorder's MaxEvents", dropped)
			}
		}
	}
	for i, je := range raw.TraceEvents {
		if !known[je.Ph] {
			return fmt.Errorf("trace: event %d (%q): unknown phase %q", i, je.Name, je.Ph)
		}
		if je.Ph == "M" {
			continue
		}
		if je.Name == "" {
			return fmt.Errorf("trace: event %d: missing name", i)
		}
		if je.TS == nil {
			return fmt.Errorf("trace: event %d (%q): missing ts", i, je.Name)
		}
		if *je.TS < 0 {
			return fmt.Errorf("trace: event %d (%q): negative ts %v", i, je.Name, *je.TS)
		}
		if je.Ph == "X" {
			if je.Dur == nil {
				return fmt.Errorf("trace: event %d (%q): complete event without dur", i, je.Name)
			}
			if *je.Dur < 0 {
				return fmt.Errorf("trace: event %d (%q): negative dur %v", i, je.Name, *je.Dur)
			}
		}
		if _, _, err := eventTimes(i, je); err != nil {
			return err
		}
		if !threads[[2]int{je.PID, je.TID}] {
			return fmt.Errorf("trace: event %d (%q): no thread_name metadata for pid=%d tid=%d",
				i, je.Name, je.PID, je.TID)
		}
	}
	return nil
}

// LaneNames returns the distinct lanes referenced by the events, sorted.
func LaneNames(events []Event) []string {
	seen := map[string]bool{}
	for _, ev := range events {
		seen[ev.Lane.String()] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// sortEventsForAnalysis orders events by (Start, Seq), the canonical order
// of the metrics and critical-path passes.
func sortEventsForAnalysis(events []Event) []Event {
	out := append([]Event(nil), events...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// joinNonEmpty joins the non-empty strings with sep.
func joinNonEmpty(sep string, parts ...string) string {
	var keep []string
	for _, p := range parts {
		if p != "" {
			keep = append(keep, p)
		}
	}
	return strings.Join(keep, sep)
}
