package figures

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/apps/gemm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The streaming-transfer ablation: one paper-shaped GEMM column shard moves
// storage -> DRAM -> GPU memory on the discrete tree while the GPU consumes
// each k-panel as it lands. Sweeping the sub-chunk count from 1 (pure
// store-and-forward, compute after the last byte) upward shows the §III-C
// multi-stage overlap: the curve rises steeply to ~1.3-1.6x and saturates
// once the slowest hop paces the pipeline.

// streamShardCols is the shard width (the paper's 4k DRAM blocking for 16k
// inputs). It fixes the kernel's arithmetic intensity per streamed byte, so
// the compute-vs-IO balance of the sweep matches the paper's GEMM shard
// regardless of Options.Scale.
const streamShardCols = 4096

// streamSubChunkCounts are the sweep points; 0 is the adaptive sizer.
var streamSubChunkCounts = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 0}

// StreamRow is one sub-chunk-count point of the sweep.
type StreamRow struct {
	// SubChunks is the requested count; 0 means the adaptive sizer chose.
	SubChunks int
	// Count is the number of sub-chunks actually moved.
	Count int64
	// Elapsed is the virtual end-to-end time (move + consumer kernels).
	Elapsed sim.Time
	// Speedup is the store-and-forward (1 sub-chunk) elapsed over this
	// row's elapsed.
	Speedup float64
	// MaxInFlight is the peak number of sub-chunks simultaneously in the
	// pipeline (1 for store-and-forward, > 1 once hops overlap).
	MaxInFlight int64
}

// StreamResult carries the sweep.
type StreamResult struct {
	// PayloadBytes is the size of the streamed shard.
	PayloadBytes int64
	// Rows are the sweep points in streamSubChunkCounts order.
	Rows []StreamRow
}

// StreamOverlap sweeps the sub-chunk count of a streamed GEMM shard load on
// the discrete tree (storage -> DRAM -> GPU memory) with the tile kernel
// consuming k-panels as they arrive, and reports the end-to-end speedup
// over the store-and-forward baseline.
func StreamOverlap(o Options) (*StreamResult, error) {
	o, err := o.norm()
	if err != nil {
		return nil, err
	}
	// The shard is (denseN/2) rows x streamShardCols floats: row count sets
	// only the sweep's duration, while the fixed width keeps the kernel's
	// flops-per-byte at the paper's shard geometry across scales.
	rows := o.denseN() / 2
	payload := int64(rows) * streamShardCols * 4
	res := &StreamResult{PayloadBytes: payload}
	var baseline sim.Time
	for _, count := range streamSubChunkCounts {
		elapsed, moved, inflight, err := o.runStreamedShard(sim.NewEngine(), payload, count, nil)
		if err != nil {
			return nil, err
		}
		if baseline == 0 {
			baseline = elapsed
		}
		res.Rows = append(res.Rows, StreamRow{
			SubChunks:   count,
			Count:       moved,
			Elapsed:     elapsed,
			Speedup:     float64(baseline) / float64(elapsed),
			MaxInFlight: inflight,
		})
	}
	return res, nil
}

// runStreamedShard executes one sweep point on a fresh discrete tree driven
// by the fresh engine e. With a non-nil registry the run carries continuous
// metrics (the perf suite's stream-overlap entry).
func (o Options) runStreamedShard(e *sim.Engine, payload int64, count int, reg *obs.Registry) (sim.Time, int64, int64, error) {
	opts := core.DefaultOptions()
	opts.Phantom = true
	opts.Metrics = reg
	tree := topo.Discrete(e, topo.DiscreteConfig{
		Storage:    topo.SSD,
		StorageMiB: o.storageMiB(),
		DRAMMiB:    o.stageMiB(),
		GPUMemMiB:  int64(paperGPUMemMiB / (o.Scale * o.Scale)),
	})
	rt := core.NewRuntime(e, tree, opts)
	root := rt.Tree().Root()
	src, err := rt.CreateInput(root, "stream-shard", payload, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	leaf := root.Children[0].Children[0]
	rowBytes := int64(streamShardCols) * 4
	stats, err := rt.Run("stream-overlap", func(c *core.Ctx) error {
		dst, err := c.AllocAt(leaf, payload)
		if err != nil {
			return err
		}
		return c.MoveDataDownStreamed(dst, src, 0, 0, payload, core.StreamOptions{
			SubChunks: count,
			OnChunk: func(sub *core.Ctx, i int, off, n int64) error {
				// Consume the landed k-panel: C(s x s) += A(s x kp)·B(kp x s),
				// the accumulation step of gemm.multiplyShard.
				kp := int(n / rowBytes)
				if kp == 0 {
					return nil
				}
				kern, groups := gemm.TileKernel(nil, nil, nil,
					streamShardCols, kp, streamShardCols, i > 0)
				_, err := sub.LaunchKernel(kern, groups)
				return err
			},
		})
	})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("figures: stream overlap at %d sub-chunks: %w", count, err)
	}
	ss := rt.StreamStats()
	return stats.Elapsed, ss.SubChunks, ss.MaxInFlight, nil
}

// String renders the sweep as a table.
func (r *StreamResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Streamed-transfer overlap: GEMM shard (%d MiB) storage->DRAM->GPU, kernel consumes k-panels\n",
		r.PayloadBytes>>20)
	fmt.Fprintf(&sb, "  %-10s %8s %12s %9s %10s\n",
		"sub-chunks", "moved", "virtual-s", "speedup", "in-flight")
	for _, row := range r.Rows {
		name := fmt.Sprintf("%d", row.SubChunks)
		if row.SubChunks == 0 {
			name = "auto"
		}
		fmt.Fprintf(&sb, "  %-10s %8d %12.4f %8.2fx %10d\n",
			name, row.Count, row.Elapsed.Seconds(), row.Speedup, row.MaxInFlight)
	}
	return sb.String()
}

// CSV renders the sweep as sub_chunks,moved,virtual_s,speedup,max_in_flight
// (sub_chunks 0 is the adaptive row).
func (r *StreamResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("sub_chunks,moved,virtual_s,speedup,max_in_flight\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%d,%d,%.6f,%.4f,%d\n",
			row.SubChunks, row.Count, row.Elapsed.Seconds(), row.Speedup, row.MaxInFlight)
	}
	return sb.String()
}

// streamJSONRow is the machine-readable form of one sweep point, consumed
// by the Makefile's bench-stream target.
type streamJSONRow struct {
	Name        string  `json:"name"`
	SubChunks   int     `json:"sub_chunks"`
	Moved       int64   `json:"moved"`
	VirtualS    float64 `json:"virtual_s"`
	Speedup     float64 `json:"speedup"`
	MaxInFlight int64   `json:"max_in_flight"`
}

// JSON renders the sweep as a JSON array (one object per sweep point).
func (r *StreamResult) JSON() string {
	rows := make([]streamJSONRow, 0, len(r.Rows))
	for _, row := range r.Rows {
		name := fmt.Sprintf("stream-s%d", row.SubChunks)
		if row.SubChunks == 0 {
			name = "stream-auto"
		}
		rows = append(rows, streamJSONRow{
			Name:        name,
			SubChunks:   row.SubChunks,
			Moved:       row.Count,
			VirtualS:    row.Elapsed.Seconds(),
			Speedup:     row.Speedup,
			MaxInFlight: row.MaxInFlight,
		})
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		panic(err) // plain structs cannot fail to marshal
	}
	return string(out) + "\n"
}

var _ Renderer = (*StreamResult)(nil)
