// Package trace accumulates the execution-time breakdown of a Northup run:
// CPU compute, GPU compute, buffer setup, transfers, and I/O — the
// categories of the paper's Figures 7 and 8 — plus the runtime's own
// bookkeeping, which §V-B bounds below 1% of total execution.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Category labels one component of execution time.
type Category int

const (
	// CPUCompute is time spent computing on CPU cores.
	CPUCompute Category = iota
	// GPUCompute is time spent in GPU kernels.
	GPUCompute
	// PIMCompute is time spent on processor-in-memory units (§VI).
	PIMCompute
	// FPGACompute is time spent in configured FPGA pipelines (§VII's
	// "plug in ... regardless of which acceleration approach").
	FPGACompute
	// BufferSetup is allocation/creation of buffers at each level.
	BufferSetup
	// Transfer is memory-to-memory data movement (DMA, PCIe / "OpenCL
	// transfers" in the paper's Figure 8).
	Transfer
	// IO is file-storage traffic (open/read/write on SSD or disk).
	IO
	// Runtime is Northup bookkeeping: tree lookups, task control, queue
	// operations.
	Runtime

	numCategories
)

// Categories lists all categories in display order.
var Categories = []Category{CPUCompute, GPUCompute, PIMCompute, FPGACompute, BufferSetup, Transfer, IO, Runtime}

// String returns the category's display name.
func (c Category) String() string {
	switch c {
	case CPUCompute:
		return "cpu"
	case GPUCompute:
		return "gpu"
	case PIMCompute:
		return "pim"
	case FPGACompute:
		return "fpga"
	case BufferSetup:
		return "setup"
	case Transfer:
		return "transfer"
	case IO:
		return "io"
	case Runtime:
		return "runtime"
	default:
		return fmt.Sprintf("cat(%d)", int(c))
	}
}

// CacheStats counts staging-cache activity (package cache, wired through
// core): how often a MoveDataDownCached was served from a resident buffer
// instead of re-crossing the storage edge, and what the pool did to make
// room. Byte counters let reports weigh hits by traffic, not just count.
type CacheStats struct {
	// Hits is the number of cached fetches served from a resident buffer.
	Hits int64
	// Misses is the number of cached fetches that had to cross the edge.
	// A retried (fault-injected) fetch still counts as one miss.
	Misses int64
	// Evictions is the number of entries evicted to make room, including
	// evictions forced by an allocation its node could not otherwise hold.
	Evictions int64
	// Prefetches is the number of lookahead fetches issued.
	Prefetches int64
	// PrefetchHits is the number of prefetched entries that later served a
	// demand fetch (Prefetches - PrefetchHits were wasted).
	PrefetchHits int64
	// Bypasses is the number of cached fetches that fell back to a plain
	// move because the extent could not be cached (pool too small, or
	// pinned entries blocked eviction).
	Bypasses int64
	// Invalidations is the number of entries dropped because their source
	// range was overwritten.
	Invalidations int64
	// PrefetchErrors is the number of lookahead fills that failed after
	// exhausting retries. Demand fetches are unaffected (they re-fetch and
	// surface their own error), so these are silent efficiency losses.
	PrefetchErrors int64
	// HitBytes and MissBytes weigh the counters by traffic.
	HitBytes  int64
	MissBytes int64
}

// Any reports whether the cache saw any traffic.
func (s CacheStats) Any() bool {
	return s.Hits+s.Misses+s.Prefetches+s.Bypasses+s.Invalidations > 0
}

// HitRate returns hits / (hits + misses), or 0 with no traffic.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// DeltaFrom returns the activity since prev was captured.
func (s CacheStats) DeltaFrom(prev CacheStats) CacheStats {
	return CacheStats{
		Hits:           s.Hits - prev.Hits,
		Misses:         s.Misses - prev.Misses,
		Evictions:      s.Evictions - prev.Evictions,
		Prefetches:     s.Prefetches - prev.Prefetches,
		PrefetchHits:   s.PrefetchHits - prev.PrefetchHits,
		Bypasses:       s.Bypasses - prev.Bypasses,
		Invalidations:  s.Invalidations - prev.Invalidations,
		PrefetchErrors: s.PrefetchErrors - prev.PrefetchErrors,
		HitBytes:       s.HitBytes - prev.HitBytes,
		MissBytes:      s.MissBytes - prev.MissBytes,
	}
}

// add accumulates o into s (Breakdown.Merge's cache half).
func (s *CacheStats) add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Prefetches += o.Prefetches
	s.PrefetchHits += o.PrefetchHits
	s.Bypasses += o.Bypasses
	s.Invalidations += o.Invalidations
	s.PrefetchErrors += o.PrefetchErrors
	s.HitBytes += o.HitBytes
	s.MissBytes += o.MissBytes
}

// String renders a one-line summary.
func (s CacheStats) String() string {
	line := fmt.Sprintf("hits %d (%.1f%%) | misses %d | evictions %d | prefetches %d (%d hit) | bypasses %d | invalidations %d",
		s.Hits, 100*s.HitRate(), s.Misses, s.Evictions, s.Prefetches, s.PrefetchHits,
		s.Bypasses, s.Invalidations)
	if s.PrefetchErrors > 0 {
		line += fmt.Sprintf(" | prefetch-errors %d", s.PrefetchErrors)
	}
	return line
}

// Breakdown accumulates busy time per category over a run.
//
// Components may overlap in time (that is the point of multi-stage
// transfers), so the category sum can exceed the elapsed total; the paper's
// stacked-to-100% bars correspond to Fraction, which normalizes by the
// category sum.
type Breakdown struct {
	busy  [numCategories]sim.Time
	total sim.Time
	cache CacheStats
}

// Cache returns the breakdown's staging-cache counters for accumulation.
func (b *Breakdown) Cache() *CacheStats { return &b.cache }

// Add accumulates d into the category.
func (b *Breakdown) Add(c Category, d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("trace: negative duration %v for %v", d, c))
	}
	b.busy[c] += d
}

// Busy returns the accumulated busy time of a category.
func (b *Breakdown) Busy(c Category) sim.Time { return b.busy[c] }

// SetTotal records the elapsed (wall-clock, virtual) duration of the run.
func (b *Breakdown) SetTotal(d sim.Time) { b.total = d }

// Total returns the recorded elapsed duration.
func (b *Breakdown) Total() sim.Time { return b.total }

// Sum returns the sum of all category busy times.
func (b *Breakdown) Sum() sim.Time {
	var s sim.Time
	for _, t := range b.busy {
		s += t
	}
	return s
}

// Fraction returns the category's share of the busy sum, the quantity the
// paper's breakdown figures plot.
func (b *Breakdown) Fraction(c Category) float64 {
	s := b.Sum()
	if s == 0 {
		return 0
	}
	return float64(b.busy[c]) / float64(s)
}

// FractionOfTotal returns the category's share of elapsed time, which can
// exceed 1 summed across categories when activities overlap.
func (b *Breakdown) FractionOfTotal(c Category) float64 {
	if b.total == 0 {
		return 0
	}
	return float64(b.busy[c]) / float64(b.total)
}

// DeltaFrom returns a breakdown holding b's busy times minus prev's: the
// activity that happened between the two snapshots.
func (b *Breakdown) DeltaFrom(prev *Breakdown) Breakdown {
	var d Breakdown
	for i := range b.busy {
		d.busy[i] = b.busy[i] - prev.busy[i]
	}
	d.cache = b.cache.DeltaFrom(prev.cache)
	return d
}

// Merge adds another breakdown's busy times and cache counters into b
// (totals are not merged).
func (b *Breakdown) Merge(o *Breakdown) {
	for i := range b.busy {
		b.busy[i] += o.busy[i]
	}
	b.cache.add(o.cache)
}

// Reset zeroes all counters.
func (b *Breakdown) Reset() {
	b.busy = [numCategories]sim.Time{}
	b.total = 0
	b.cache = CacheStats{}
}

// String renders a one-line percentage summary, e.g.
// "cpu 2.1% | gpu 55.0% | setup 0.4% | transfer 12.0% | io 30.0% | runtime 0.5%".
func (b *Breakdown) String() string {
	parts := make([]string, 0, len(Categories))
	for _, c := range Categories {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", c, 100*b.Fraction(c)))
	}
	return strings.Join(parts, " | ")
}

// Report renders a multi-line table with absolute times and two shares:
// of the busy sum (the paper's stacked bars) and of elapsed time — the
// latter is what §V-B's "runtime bookkeeping below 1%" bounds, and can sum
// past 100% across categories when activities overlap.
func (b *Breakdown) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %14s %8s %11s\n", "component", "busy", "share", "of-elapsed")
	for _, c := range Categories {
		fmt.Fprintf(&sb, "%-10s %14v %7.1f%% %10.1f%%\n",
			c, b.busy[c], 100*b.Fraction(c), 100*b.FractionOfTotal(c))
	}
	fmt.Fprintf(&sb, "%-10s %14v\n", "elapsed", b.total)
	if b.cache.Any() {
		fmt.Fprintf(&sb, "%-10s %s\n", "cache", b.cache)
	}
	return sb.String()
}
