// Package obs is the continuous-observability layer of the Northup
// reproduction: a typed metrics registry (counters, gauges, fixed-bucket
// histograms) populated by the runtime's charge points or read through from
// the runtime's own stat structs, plus a virtual-time sampler that
// snapshots gauges at a configurable tick to produce deterministic time
// series (sampler.go).
//
// Where package trace answers "what happened when" for one run, this
// package answers "how much, continuously": the counters TREES- and
// DaPPA-style runtimes watch across runs — busy time per category, bytes
// per node, cache hit rates, steal balance — in a form that exports to
// Prometheus text and JSON (export.go) and diffs against a committed
// baseline (the perf-regression gate in internal/figures).
//
// Everything here follows the simulation's concurrency contract: a
// registry is driven from the single simulation goroutine (like the trace
// Recorder and the Breakdown) and therefore needs no locking. Exports are
// deterministic byte for byte — metric families and label sets are sorted,
// values are formatted from integers or via strconv's shortest-round-trip
// float form, and no map iteration order leaks into the output — so two
// identical runs produce identical artifacts, which is what makes a
// committed baseline meaningful.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind distinguishes the metric types a registry holds.
type Kind uint8

const (
	// KindCounter is a monotonically increasing int64 total.
	KindCounter Kind = iota
	// KindGauge is an instantaneous float64 value (the sampler's subject).
	KindGauge
	// KindHistogram is a fixed-bucket distribution of int64 observations.
	KindHistogram
)

// String names the kind as the Prometheus text format does.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Label is one name="value" dimension of a metric.
type Label struct {
	Name, Value string
}

// L builds a label (shorthand for call sites).
func L(name, value string) Label { return Label{Name: name, Value: value} }

// renderLabels renders a sorted {a="x",b="y"} suffix, or "" without labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(l.Value)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// Counter is a monotonically increasing total. A read-through counter
// (Registry.CounterFunc) has no value of its own: it reads its source
// whenever the registry is snapshotted, sampled or merged.
type Counter struct {
	v    int64
	read func() int64
}

// Add increases the counter. Negative deltas panic: a counter that goes
// backward means two charge points disagree about the source of truth.
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("obs: counter decreased by %d", d))
	}
	c.v += d
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Value returns the accumulated total, or the source's current total for a
// read-through counter.
func (c *Counter) Value() int64 {
	if c.read != nil {
		return c.read()
	}
	return c.v
}

// Gauge is an instantaneous value. A read-through gauge
// (Registry.GaugeFunc) derives its value from its source on every read.
type Gauge struct {
	v    float64
	read func() float64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g.read != nil {
		return g.read()
	}
	return g.v
}

// Histogram is a fixed-bucket distribution of int64 observations
// (virtual-time durations in nanoseconds, byte sizes). Buckets are
// cumulative upper bounds like Prometheus's: an observation lands in every
// bucket whose bound is >= the value, plus the implicit +Inf bucket.
// Fixed bounds are what make cluster rollup associative: merging is
// element-wise addition, in any order.
type Histogram struct {
	bounds []int64 // sorted upper bounds, exclusive of +Inf
	counts []int64 // len(bounds)+1; last is the +Inf bucket
	sum    int64
	n      int64
	max    int64 // largest observation; bounds Quantile's +Inf bucket

	// ex, when non-nil, retains the top-K worst exemplars per bucket
	// (exemplar.go). Lazily allocated by the first ObserveExemplar, so
	// plain histograms pay nothing.
	ex  [][]Exemplar
	exK int
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.sum += v
	h.n++
	if v > h.max {
		h.max = v
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Max returns the largest observation (0 before any Observe).
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns the q-quantile (q in [0,1]) as the upper bound of the
// bucket where the cumulative count reaches ceil(q*n): a deterministic,
// merge-stable estimate with bucket-granularity resolution, which is how
// per-tenant latency percentiles (p50/p99) are reported from fixed-bucket
// histograms. Observations beyond the last bound resolve to Max(). Returns
// 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	return quantile(h.bounds, h.counts, h.n, h.max, q)
}

// quantile is the bucket rule behind Histogram.Quantile and
// HistSnapshot.Quantile over n observations in counts (one per bound, then
// +Inf) whose largest is max.
func quantile(bounds, counts []int64, n, max int64, q float64) int64 {
	if n <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i, b := range bounds {
		cum += counts[i]
		if cum >= rank {
			if b > max {
				return max
			}
			return b
		}
	}
	return max
}

// metric is one registered instrument.
type metric struct {
	family string
	full   string // family + rendered labels
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups the metrics sharing one name.
type family struct {
	name string
	help string
	kind Kind
}

// Registry holds the metrics of one runtime (or one cluster machine).
// Metrics register lazily and idempotently: asking twice for the same
// (name, labels) returns the same instrument.
type Registry struct {
	fams    map[string]*family
	metrics map[string]*metric // keyed by full name
	order   []string           // sorted full names, rebuilt lazily
	dirty   bool
	gauges  []*metric // sorted by full name, rebuilt lazily with order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}, metrics: map[string]*metric{}}
}

// register resolves or creates the instrument for (name, labels).
func (r *Registry) register(name, help string, kind Kind, labels []Label) *metric {
	fam, ok := r.fams[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind}
		r.fams[name] = fam
	} else if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v and %v", name, fam.kind, kind))
	}
	full := name + renderLabels(labels)
	if m, ok := r.metrics[full]; ok {
		return m
	}
	m := &metric{family: name, full: full, kind: kind}
	r.metrics[full] = m
	r.dirty = true
	return m
}

// Counter resolves or creates a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(name, help, KindCounter, labels)
	if m.c == nil {
		m.c = &Counter{}
	} else if m.c.read != nil {
		panic(fmt.Sprintf("obs: counter %q is read-through", m.full))
	}
	return m.c
}

// CounterFunc registers a read-through counter: read returns the
// cumulative total of a monotonic source the caller already keeps (cache,
// resilience or stream stats), so the registry never holds a second copy.
// Registering the same name and labels twice panics.
func (r *Registry) CounterFunc(name, help string, read func() int64, labels ...Label) {
	m := r.register(name, help, KindCounter, labels)
	if m.c != nil {
		panic(fmt.Sprintf("obs: read-through counter %q registered twice", m.full))
	}
	m.c = &Counter{read: read}
}

// Gauge resolves or creates a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(name, help, KindGauge, labels)
	if m.g == nil {
		m.g = &Gauge{}
	} else if m.g.read != nil {
		panic(fmt.Sprintf("obs: gauge %q is read-through", m.full))
	}
	return m.g
}

// GaugeFunc registers a read-through gauge whose value read derives from
// the caller's state (a hit rate, an elapsed time) on every read.
// Registering the same name and labels twice panics.
func (r *Registry) GaugeFunc(name, help string, read func() float64, labels ...Label) {
	m := r.register(name, help, KindGauge, labels)
	if m.g != nil {
		panic(fmt.Sprintf("obs: read-through gauge %q registered twice", m.full))
	}
	m.g = &Gauge{read: read}
}

// Histogram resolves or creates a fixed-bucket histogram. bounds must be
// sorted ascending; re-registering with different bounds panics, because
// mismatched buckets would make merges silently wrong.
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
		}
	}
	m := r.register(name, help, KindHistogram, labels)
	if m.h == nil {
		m.h = &Histogram{bounds: append([]int64(nil), bounds...),
			counts: make([]int64, len(bounds)+1)}
		return m.h
	}
	if len(m.h.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
	}
	for i := range bounds {
		if m.h.bounds[i] != bounds[i] {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
		}
	}
	return m.h
}

// sorted rebuilds the deterministic iteration order on demand.
func (r *Registry) sorted() []string {
	if r.dirty {
		r.order = r.order[:0]
		for full := range r.metrics {
			r.order = append(r.order, full)
		}
		sort.Strings(r.order)
		r.gauges = r.gauges[:0]
		for _, full := range r.order {
			if m := r.metrics[full]; m.kind == KindGauge {
				r.gauges = append(r.gauges, m)
			}
		}
		r.dirty = false
	}
	return r.order
}

// Len returns the number of registered instruments.
func (r *Registry) Len() int { return len(r.metrics) }

// Merge adds o's values into r: counters and histogram buckets add,
// gauges add as well (queue depths and byte totals sum meaningfully across
// machines; ratio gauges like hit rates should be recomputed from the
// merged counters instead of read off a merged registry). Instruments
// missing from r are created, as plain instruments: a read-through one in
// o contributes its source's current value, and merging into a read-through
// one panics. Histograms must share bucket bounds — fixed bounds are the
// contract that makes this merge associative and order-independent, which
// the cluster rollup tests assert.
func (r *Registry) Merge(o *Registry) {
	for _, full := range o.sorted() {
		om := o.metrics[full]
		r.mergeOne(full, om, o.fams[om.family])
	}
}

// mergeOne folds one of o's instruments into r by full name.
func (r *Registry) mergeOne(full string, om *metric, fam *family) {
	m, ok := r.metrics[full]
	if !ok {
		if f, ok := r.fams[om.family]; ok && f.kind != om.kind {
			panic(fmt.Sprintf("obs: merge of %q as %v into registry holding %v", om.family, om.kind, f.kind))
		}
		if _, ok := r.fams[om.family]; !ok {
			r.fams[om.family] = &family{name: fam.name, help: fam.help, kind: fam.kind}
		}
		m = &metric{family: om.family, full: full, kind: om.kind}
		r.metrics[full] = m
		r.dirty = true
	} else if m.kind != om.kind {
		panic(fmt.Sprintf("obs: merge of %q as %v into %v", full, om.kind, m.kind))
	}
	switch om.kind {
	case KindCounter:
		if m.c == nil {
			m.c = &Counter{}
		} else if m.c.read != nil {
			panic(fmt.Sprintf("obs: merge into read-through counter %q", full))
		}
		m.c.Add(om.c.Value())
	case KindGauge:
		if m.g == nil {
			m.g = &Gauge{}
		} else if m.g.read != nil {
			panic(fmt.Sprintf("obs: merge into read-through gauge %q", full))
		}
		m.g.Set(m.g.Value() + om.g.Value())
	case KindHistogram:
		if m.h == nil {
			m.h = &Histogram{bounds: append([]int64(nil), om.h.bounds...),
				counts: make([]int64, len(om.h.counts))}
		}
		if len(m.h.counts) != len(om.h.counts) {
			panic(fmt.Sprintf("obs: merge of histogram %q with different buckets", full))
		}
		for i := range om.h.bounds {
			if m.h.bounds[i] != om.h.bounds[i] {
				panic(fmt.Sprintf("obs: merge of histogram %q with different buckets", full))
			}
		}
		for i, c := range om.h.counts {
			m.h.counts[i] += c
		}
		m.h.sum += om.h.sum
		m.h.n += om.h.n
		if om.h.max > m.h.max {
			m.h.max = om.h.max
		}
		m.h.mergeExemplars(om.h)
	}
}

// Point is one exported scalar: a counter's total, a gauge's value, or one
// histogram component (bucket, sum, count) flattened to a named number.
type Point struct {
	// Name is the full metric name including labels; histogram components
	// carry _bucket{le=...}, _sum and _count suffixes.
	Name string
	// Kind is the owning instrument's kind.
	Kind Kind
	// Value is the scalar. Counter and histogram components are integral.
	Value float64
}

// Snapshot flattens the registry into sorted points — the single source
// the Prometheus writer, the JSON writer and the perf profile all consume,
// so the three views can never disagree.
func (r *Registry) Snapshot() []Point {
	var out []Point
	for _, full := range r.sorted() {
		m := r.metrics[full]
		switch m.kind {
		case KindCounter:
			out = append(out, Point{Name: full, Kind: KindCounter, Value: float64(m.c.Value())})
		case KindGauge:
			out = append(out, Point{Name: full, Kind: KindGauge, Value: m.g.Value()})
		case KindHistogram:
			cum := int64(0)
			for i, b := range m.h.bounds {
				cum += m.h.counts[i]
				out = append(out, Point{Name: histName(full, "_bucket", strconv.FormatInt(b, 10)),
					Kind: KindHistogram, Value: float64(cum)})
			}
			cum += m.h.counts[len(m.h.bounds)]
			out = append(out, Point{Name: histName(full, "_bucket", "+Inf"), Kind: KindHistogram, Value: float64(cum)})
			out = append(out, Point{Name: histName(full, "_sum", ""), Kind: KindHistogram, Value: float64(m.h.sum)})
			out = append(out, Point{Name: histName(full, "_count", ""), Kind: KindHistogram, Value: float64(m.h.n)})
		}
	}
	return out
}

// Flatten returns the snapshot as a name -> value map (the perf profile's
// metric table).
func (r *Registry) Flatten() map[string]float64 {
	pts := r.Snapshot()
	out := make(map[string]float64, len(pts))
	for _, p := range pts {
		out[p.Name] = p.Value
	}
	return out
}

// histName splices a histogram component suffix into a full metric name,
// keeping any label set: name{a="x"} + _bucket/le=10 ->
// name_bucket{a="x",le="10"}.
func histName(full, suffix, le string) string {
	name, labels := full, ""
	if i := strings.IndexByte(full, '{'); i >= 0 {
		name, labels = full[:i], full[i+1:len(full)-1]
	}
	if le != "" {
		leLabel := `le="` + le + `"`
		if labels == "" {
			labels = leLabel
		} else {
			labels += "," + leLabel
		}
	}
	if labels == "" {
		return name + suffix
	}
	return name + suffix + "{" + labels + "}"
}

// formatValue renders a scalar deterministically: integral values as
// integers, others in shortest round-trip form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
