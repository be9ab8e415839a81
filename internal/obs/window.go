package obs

import (
	"fmt"

	"repro/internal/sim"
)

// This file holds the rolling-window primitives the live operations plane
// (package ops) aggregates with: rings of cumulative samples taken at
// virtual-time step boundaries, answering "how much did this change over
// the trailing W of virtual time" for counters, "what was the extreme"
// for gauges, and "what was the windowed quantile" for fixed-bucket
// histograms. Everything is driven from the single simulation goroutine at
// deterministic instants, so — like the rest of the package — identical
// runs produce identical window series, byte for byte.

// HistSnapshot is an immutable copy of a histogram's state at one instant.
// Two snapshots of the same histogram subtract to the distribution of the
// observations made between them, which is what windowed quantiles are
// computed from.
type HistSnapshot struct {
	bounds []int64
	counts []int64
	sum    int64
	n      int64
	max    int64
}

// Snap copies the histogram's current state. The bounds slice is shared
// (bounds are immutable after registration); counts are copied.
func (h *Histogram) Snap() HistSnapshot {
	return HistSnapshot{
		bounds: h.bounds,
		counts: append([]int64(nil), h.counts...),
		sum:    h.sum,
		n:      h.n,
		max:    h.max,
	}
}

// Sub returns the distribution observed between base and s (s must be the
// later snapshot of the same histogram). Mismatched bucket layouts panic,
// mirroring Merge: silently subtracting different buckets would fabricate
// a distribution.
func (s HistSnapshot) Sub(base HistSnapshot) HistSnapshot {
	if len(s.counts) != len(base.counts) {
		panic(fmt.Sprintf("obs: snapshot subtraction across different bucket layouts (%d vs %d buckets)",
			len(s.counts), len(base.counts)))
	}
	for i := range s.bounds {
		if s.bounds[i] != base.bounds[i] {
			panic("obs: snapshot subtraction across different bucket bounds")
		}
	}
	out := HistSnapshot{bounds: s.bounds, counts: make([]int64, len(s.counts)),
		sum: s.sum - base.sum, n: s.n - base.n, max: s.max}
	for i := range s.counts {
		out.counts[i] = s.counts[i] - base.counts[i]
	}
	return out
}

// Count returns the number of observations in the snapshot.
func (s HistSnapshot) Count() int64 { return s.n }

// Sum returns the sum of observations in the snapshot.
func (s HistSnapshot) Sum() int64 { return s.sum }

// Quantile returns the q-quantile of the snapshot with the same
// bucket-granularity semantics as Histogram.Quantile. For a subtracted
// (windowed) snapshot, observations beyond the last bound resolve to the
// source histogram's lifetime max — a deterministic upper estimate.
func (s HistSnapshot) Quantile(q float64) int64 {
	return quantile(s.bounds, s.counts, s.n, s.max, q)
}

// winSample is one ring entry: a cumulative value observed at instant t.
type winSample struct {
	t sim.Time
	v float64
}

// Window is a bounded ring of cumulative scalar samples recorded at step
// boundaries. DeltaOver answers "change over the trailing width": the
// difference between the latest sample and the newest sample at least
// width older. Windows older than the ring's horizon are clipped to the
// oldest retained sample, so early in a run every window degrades
// gracefully to "since the start".
type Window struct {
	ring  []winSample
	head  int // index of the oldest retained sample
	count int
}

// NewWindow sizes a ring to retain maxWidth/step samples plus the endpoints.
func NewWindow(maxWidth, step sim.Time) *Window {
	if step <= 0 {
		panic("obs: NewWindow with non-positive step")
	}
	n := int(maxWidth/step) + 2
	return &Window{ring: make([]winSample, n)}
}

// Record appends one cumulative sample at instant t. Samples must arrive in
// non-decreasing time order.
func (w *Window) Record(t sim.Time, v float64) {
	if w.count == len(w.ring) {
		w.head = (w.head + 1) % len(w.ring)
		w.count--
	}
	w.ring[(w.head+w.count)%len(w.ring)] = winSample{t: t, v: v}
	w.count++
}

// at returns the i-th retained sample (0 = oldest).
func (w *Window) at(i int) winSample { return w.ring[(w.head+i)%len(w.ring)] }

// Latest returns the most recent sample's value (0 before any Record).
func (w *Window) Latest() float64 {
	if w.count == 0 {
		return 0
	}
	return w.at(w.count - 1).v
}

// base returns the newest retained sample at least width older than the
// latest, falling back to the oldest retained sample (clipped window).
func (w *Window) base(width sim.Time) winSample {
	latest := w.at(w.count - 1)
	cutoff := latest.t - width
	for i := w.count - 1; i >= 0; i-- {
		if s := w.at(i); s.t <= cutoff {
			return s
		}
	}
	return w.at(0)
}

// DeltaOver returns latest - base over the trailing width (0 with fewer
// than two samples).
func (w *Window) DeltaOver(width sim.Time) float64 {
	if w.count < 2 {
		return 0
	}
	return w.at(w.count-1).v - w.base(width).v
}

// MaxOver returns the largest sample value within the trailing width
// (inclusive of the window's base sample), for gauge-style sources where
// the extreme matters more than the change.
func (w *Window) MaxOver(width sim.Time) float64 {
	if w.count == 0 {
		return 0
	}
	latest := w.at(w.count - 1)
	cutoff := latest.t - width
	max := latest.v
	for i := w.count - 1; i >= 0; i-- {
		s := w.at(i)
		if s.v > max {
			max = s.v
		}
		if s.t <= cutoff {
			break
		}
	}
	return max
}

// HistWindow is the histogram counterpart of Window: a ring of snapshots
// taken at step boundaries. Over returns the distribution observed within
// the trailing width (clipped like Window.DeltaOver).
type HistWindow struct {
	h     *Histogram
	ring  []histSample
	head  int
	count int
}

type histSample struct {
	t    sim.Time
	snap HistSnapshot
}

// NewHistWindow sizes a snapshot ring for h over maxWidth at the given step.
func NewHistWindow(h *Histogram, maxWidth, step sim.Time) *HistWindow {
	if step <= 0 {
		panic("obs: NewHistWindow with non-positive step")
	}
	n := int(maxWidth/step) + 2
	return &HistWindow{h: h, ring: make([]histSample, n)}
}

// Record snapshots the histogram at instant t.
func (w *HistWindow) Record(t sim.Time) {
	if w.count == len(w.ring) {
		w.head = (w.head + 1) % len(w.ring)
		w.count--
	}
	w.ring[(w.head+w.count)%len(w.ring)] = histSample{t: t, snap: w.h.Snap()}
	w.count++
}

func (w *HistWindow) at(i int) histSample { return w.ring[(w.head+i)%len(w.ring)] }

// Over returns the distribution observed within the trailing width: the
// latest snapshot minus the newest snapshot at least width older (or the
// oldest retained — the clipped window). A zero-value snapshot is returned
// before two samples exist.
func (w *HistWindow) Over(width sim.Time) HistSnapshot {
	if w.count < 2 {
		return HistSnapshot{}
	}
	latest := w.at(w.count - 1)
	cutoff := latest.t - width
	base := w.at(0)
	for i := w.count - 1; i >= 0; i-- {
		if s := w.at(i); s.t <= cutoff {
			base = s
			break
		}
	}
	return latest.snap.Sub(base.snap)
}
