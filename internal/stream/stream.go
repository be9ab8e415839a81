// Package stream plans multi-stage (pipelined) transfers down the memory
// tree: it models each hop of a move as a latency + bandwidth stage and
// picks the sub-chunk count that minimizes the predicted pipeline makespan.
//
// The package is pure arithmetic over device profiles — no simulator state,
// no allocation — so the sizer can be unit-tested exhaustively and reused by
// schedulers that want to predict transfer times without running them.
//
// Model. A move of total bytes T split into c sub-chunks flows through hops
// h_0..h_{H-1}; sub-chunk i may not start hop k before (a) it finished hop
// k-1 and (b) sub-chunk i-1 finished hop k. With double buffering at every
// intermediate node the steady state is paced by the slowest hop, giving
//
//	makespan(c) ≈ Σ_k s_k(T/c)  +  (c-1) · max_k s_k(T/c)
//
// where s_k(n) = L_k + n/BW_k is hop k's service time for n bytes. The first
// term is the pipeline fill (sub-chunk 0 traversing every hop), the second
// the drain of the remaining c-1 sub-chunks through the bottleneck. Raising
// c shrinks the fill but multiplies the per-hop latency term c·L_k; the
// minimum sits where the two balance, and Size finds it by direct search.
package stream

import (
	"fmt"

	"repro/internal/sim"
)

// Hop models one edge of a transfer path: a fixed per-request latency plus
// a bandwidth. For device-backed hops the caller folds the link and endpoint
// profiles into a single effective (latency, bandwidth) pair.
type Hop struct {
	Latency sim.Time
	BW      float64 // bytes per second
}

// ServiceTime returns the modeled time for n bytes to traverse the hop.
func (h Hop) ServiceTime(n int64) sim.Time {
	return h.Latency + sim.TransferTime(n, h.BW)
}

// Makespan predicts the completion time of total bytes split into count
// uniform sub-chunks flowing through hops with double-buffered staging.
// count < 1 is treated as 1.
func Makespan(hops []Hop, total int64, count int) sim.Time {
	if count < 1 {
		count = 1
	}
	if len(hops) == 0 || total <= 0 {
		return 0
	}
	sub := ceilDiv(total, int64(count))
	var fill, bottleneck sim.Time
	for _, h := range hops {
		s := h.ServiceTime(sub)
		fill += s
		if s > bottleneck {
			bottleneck = s
		}
	}
	return fill + sim.Time(count-1)*bottleneck
}

// Plan is a resolved sub-chunking decision.
type Plan struct {
	Total     int64    // payload bytes
	Count     int      // number of sub-chunks (>= 1)
	SubChunk  int64    // bytes per sub-chunk (last one may be short)
	Predicted sim.Time // modeled makespan under the pipeline model
}

// ChunkRange returns the byte range [off, off+n) of sub-chunk i relative to
// the start of the payload.
func (p Plan) ChunkRange(i int) (off, n int64) {
	off = int64(i) * p.SubChunk
	n = p.SubChunk
	if off+n > p.Total {
		n = p.Total - off
	}
	return off, n
}

func (p Plan) String() string {
	return fmt.Sprintf("%d sub-chunks x %d B (total %d B, predicted %v)",
		p.Count, p.SubChunk, p.Total, p.Predicted)
}

// Size picks the sub-chunk count in [1, maxCount] minimizing the modeled
// makespan, subject to sub-chunks being at least minSub bytes (except when
// the whole payload is smaller). Ties break toward fewer sub-chunks, so a
// single-hop move with no pipelining benefit degenerates to count 1 and the
// streamed path stays bit- and time-identical to the monolithic one.
func Size(hops []Hop, total int64, maxCount int, minSub int64) Plan {
	if maxCount < 1 {
		maxCount = 1
	}
	if minSub < 1 {
		minSub = 1
	}
	best := Plan{Total: total, Count: 1, SubChunk: total,
		Predicted: Makespan(hops, total, 1)}
	if total <= 0 {
		best.SubChunk = 0
		return best
	}
	for c := 2; c <= maxCount; c++ {
		sub := ceilDiv(total, int64(c))
		if sub < minSub {
			break
		}
		if got := Makespan(hops, total, c); got < best.Predicted {
			best = Plan{Total: total, Count: c, SubChunk: sub, Predicted: got}
		}
	}
	return best
}

// Fixed builds a plan with an explicit sub-chunk count (clamped to the
// payload so no sub-chunk is empty).
func Fixed(hops []Hop, total int64, count int) Plan {
	if count < 1 || total <= 0 {
		count = 1
	}
	if total > 0 && int64(count) > total {
		count = int(total)
	}
	sub := total
	if total > 0 {
		sub = ceilDiv(total, int64(count))
	}
	return Plan{Total: total, Count: count, SubChunk: sub,
		Predicted: Makespan(hops, total, count)}
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
