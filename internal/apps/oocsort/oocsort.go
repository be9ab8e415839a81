// Package oocsort implements out-of-core sorting as a fourth Northup
// application. The paper argues its framework "is generic to a variety of
// problems" (§IV); sorting exercises the one divide-and-conquer phase the
// three evaluation applications barely touch — the *combine* step
// ("finally, the solutions of subproblems are combined to generate the
// final result", §I):
//
//   - Divide: the key file is cut into staging-sized chunks.
//   - Conquer: each chunk moves to the leaf and is sorted there (a bitonic
//     GPU kernel in the cost model), then written back as a sorted run.
//   - Combine: runs k-way merge on the CPU, streaming block-buffered run
//     heads through the staging level; when more runs exist than the
//     staging level can buffer, merging recurses over multiple passes.
package oocsort

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/topo"
	"repro/internal/view"
)

// Config parameterizes a sort run.
type Config struct {
	// N is the number of float32 keys.
	N int
	// Seed drives input generation.
	Seed int64
	// ChunkKeys is the leaf-sort chunk size in keys (0 = derive from the
	// staging capacity).
	ChunkKeys int
	// MergeBlockKeys is the per-run streaming buffer during merges
	// (default 64Ki keys).
	MergeBlockKeys int
}

func (cfg *Config) setDefaults() error {
	if cfg.N <= 0 {
		return fmt.Errorf("oocsort: N=%d invalid", cfg.N)
	}
	// Zero means the default; a negative value is refused, not read as it.
	switch {
	case cfg.ChunkKeys < 0:
		return fmt.Errorf("oocsort: ChunkKeys=%d invalid (0 derives it from the staging capacity)", cfg.ChunkKeys)
	case cfg.MergeBlockKeys < 0:
		return fmt.Errorf("oocsort: MergeBlockKeys=%d invalid (0 means the default, %d)", cfg.MergeBlockKeys, 64<<10)
	case cfg.MergeBlockKeys == 0:
		cfg.MergeBlockKeys = 64 << 10
	}
	return nil
}

// Result carries a run's output and measurements.
type Result struct {
	// Sorted is the output (nil in phantom mode).
	Sorted []float32
	// Stats is the measured run.
	Stats core.RunStats
	// Runs is the number of sorted runs phase 1 produced; MergePasses how
	// many combine passes phase 2 needed.
	Runs, MergePasses int
}

// Keys generates the deterministic input sequence.
func Keys(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

// bitonicKernel models the leaf sort of one chunk: a bitonic network of
// log2^2/2 stages over the chunk, functionally a host sort.
func bitonicKernel(keys []float32, chunk int) (gpu.Kernel, int) {
	const groupKeys = 1024
	groups := (chunk + groupKeys - 1) / groupKeys
	stages := math.Log2(float64(chunk))
	kern := gpu.Kernel{
		Name:          "bitonic-sort",
		FlopsPerGroup: groupKeys * stages * (stages + 1) / 2,
		BytesPerGroup: groupKeys * 4 * stages, // one pass per merge stage
		LocalBytes:    groupKeys * 4,
	}
	if keys != nil {
		// Functionally the whole chunk is sorted once, by group 0; the
		// cost model still reflects the full network.
		kern.Run = func(g int) {
			if g == 0 {
				sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			}
		}
	}
	return kern, groups
}

// mergeCost returns the CPU roofline inputs for merging n keys from fanIn
// runs: ~log2(fanIn) comparisons per key, read+write traffic.
func mergeCost(n int64, fanIn int) (flops, bytes float64) {
	cmp := math.Log2(float64(fanIn))
	if cmp < 1 {
		cmp = 1
	}
	return float64(n) * cmp, float64(n) * 8
}

// Run executes the out-of-core sort on a 2-level (storage -> staging+GPU
// +CPU) tree.
func Run(rt *core.Runtime, cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	dram, err := rt.Tree().StagingChild()
	if err != nil {
		return nil, fmt.Errorf("oocsort: %w", err)
	}
	root := rt.Tree().Root()
	functional := !rt.Phantom()
	n := cfg.N
	totalBytes := int64(n) * 4

	chunk := cfg.ChunkKeys
	if chunk == 0 {
		// One chunk buffer, double-buffered, within 90% of staging.
		free := dram.Mem.Free() * 9 / 10
		chunk = int(free / (2 * 4))
		if chunk > n {
			chunk = n
		}
		if chunk < 2 {
			return nil, fmt.Errorf("oocsort: staging level too small to sort")
		}
	}
	runs := (n + chunk - 1) / chunk

	var inputBytes []byte
	if functional {
		inputBytes = view.F32Bytes(Keys(n, cfg.Seed))
	}
	fIn, err := rt.CreateInput(root, "sort-in", totalBytes, inputBytes)
	if err != nil {
		return nil, err
	}
	// Two ping-pong run files for the merge passes.
	fPing, err := rt.CreateInput(root, "sort-ping", totalBytes, nil)
	if err != nil {
		return nil, err
	}
	fPong, err := rt.CreateInput(root, "sort-pong", totalBytes, nil)
	if err != nil {
		return nil, err
	}

	res := &Result{Runs: runs}
	stats, err := rt.Run("oocsort", func(c *core.Ctx) error {
		// Phase 1: sort chunks at the leaf, writing sorted runs to fPing.
		buf, err := c.AllocAt(dram, int64(chunk)*4)
		if err != nil {
			return err
		}
		for r := 0; r < runs; r++ {
			lo := r * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			bytes := int64(hi-lo) * 4
			if err := c.MoveDataDown(buf, fIn, 0, int64(lo)*4, bytes); err != nil {
				return err
			}
			err := c.Descend(dram, func(lc *core.Ctx) error {
				var keys []float32
				if functional {
					keys = view.F32(buf.Bytes())[:hi-lo]
				}
				kern, groups := bitonicKernel(keys, hi-lo)
				_, kerr := lc.LaunchKernel(kern, groups)
				return kerr
			})
			if err != nil {
				return err
			}
			if err := c.MoveDataUp(fPing, buf, int64(lo)*4, 0, bytes); err != nil {
				return err
			}
		}
		c.Release(buf)

		// Phase 2: combine. Merge up to fanIn runs per pass, ping-ponging
		// between the two run files, until one run remains.
		src, dst := fPing, fPong
		runLen := chunk
		liveRuns := runs
		for liveRuns > 1 {
			res.MergePasses++
			fanIn := maxFanIn(dram.Mem.Free(), cfg.MergeBlockKeys)
			if fanIn < 2 {
				return fmt.Errorf("oocsort: staging level cannot buffer two merge streams")
			}
			if err := mergePass(c, cfg, src, dst, n, runLen, fanIn, functional); err != nil {
				return err
			}
			src, dst = dst, src
			runLen *= fanIn
			liveRuns = (liveRuns + fanIn - 1) / fanIn
		}
		if src != fPing {
			// Result landed in fPong; expose it under fPing's role by one
			// last streamed copy (storage-to-storage through staging).
			if err := c.MoveData(fPing, src, 0, 0, totalBytes); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	if functional {
		out := make([]float32, n)
		if err := fPing.File().Peek(view.F32Bytes(out), 0); err != nil {
			return nil, err
		}
		res.Sorted = out
	}
	return res, nil
}

// maxFanIn returns how many run streams (plus one output stream) the
// staging level can block-buffer at once.
func maxFanIn(free int64, blockKeys int) int {
	streams := int(free * 9 / 10 / (int64(blockKeys) * 4))
	return streams - 1 // one stream is the output buffer
}

// mergePass merges consecutive groups of fanIn runs of runLen keys from src
// into dst. Functionally the merge is exact (block-buffered k-way); the
// timing charges block reads per stream, CPU merge work, and block writes.
func mergePass(c *core.Ctx, cfg Config, src, dst *core.Buffer, n, runLen, fanIn int, functional bool) error {
	dram := c.Node().Children[0]
	blockKeys := cfg.MergeBlockKeys
	for group := 0; group*runLen*fanIn < n; group++ {
		lo := group * runLen * fanIn
		hi := lo + runLen*fanIn
		if hi > n {
			hi = n
		}
		// Runs inside this group.
		type stream struct {
			pos, end int // key offsets in src
		}
		var streams []stream
		for s := lo; s < hi; s += runLen {
			e := s + runLen
			if e > hi {
				e = hi
			}
			streams = append(streams, stream{pos: s, end: e})
		}
		if len(streams) == 1 {
			// Lone run at the tail of the pass: copy through staging.
			if err := copyThrough(c, dram, dst, src, int64(lo)*4, int64(hi-lo)*4, blockKeys); err != nil {
				return err
			}
			if functional {
				region := make([]byte, (hi-lo)*4)
				if err := src.File().Peek(region, int64(lo)*4); err != nil {
					return err
				}
				if err := dst.File().Preload(region, int64(lo)*4); err != nil {
					return err
				}
			}
			continue
		}

		// Timing: every key is read once (block-granular I/O), merged on
		// the CPU, written once.
		keys := int64(hi - lo)
		blocks := func(k int64) int64 {
			b := int64(blockKeys)
			return (k + b - 1) / b
		}
		// Block reads per stream + block writes for the output.
		ioBuf, err := c.AllocAt(dram, int64(blockKeys)*4)
		if err != nil {
			return err
		}
		totalBlocks := blocks(keys) // output
		for _, st := range streams {
			totalBlocks += blocks(int64(st.end - st.pos))
		}
		for b := int64(0); b < totalBlocks; b++ {
			// Alternate read/write accounting over the same staging buffer;
			// offsets walk the group region so seek models stay honest.
			off := int64(lo)*4 + (b * int64(blockKeys) * 4 % (keys * 4))
			sz := int64(blockKeys) * 4
			if off+sz > int64(hi)*4 {
				sz = int64(hi)*4 - off
			}
			if sz <= 0 {
				continue
			}
			if b < totalBlocks-blocks(keys) {
				if err := c.MoveData(ioBuf, src, 0, off, sz); err != nil {
					return err
				}
			} else if err := c.MoveData(dst, ioBuf, off, 0, sz); err != nil {
				return err
			}
		}
		flops, bytes := mergeCost(keys, len(streams))
		if err := c.Descend(dram, func(dc *core.Ctx) error {
			_, err := dc.RunCPUParallel(flops, bytes, nil)
			return err
		}); err != nil {
			c.Release(ioBuf)
			return err
		}
		c.Release(ioBuf)

		// Functional merge, exact and independent of the timing model.
		if functional {
			merged := make([]float32, 0, keys)
			heads := make([]stream, len(streams))
			copy(heads, streams)
			// Read the whole group region once (functional only).
			region := make([]float32, keys)
			if err := src.File().Peek(view.F32Bytes(region), int64(lo)*4); err != nil {
				return err
			}
			idx := make([]int, len(streams))
			for i := range idx {
				idx[i] = heads[i].pos - lo
			}
			for len(merged) < int(keys) {
				best, bestVal := -1, float32(0)
				for i, st := range heads {
					if idx[i] >= st.end-lo {
						continue
					}
					v := region[idx[i]]
					if best == -1 || v < bestVal {
						best, bestVal = i, v
					}
				}
				merged = append(merged, bestVal)
				idx[best]++
			}
			if err := dst.File().Preload(view.F32Bytes(merged), int64(lo)*4); err != nil {
				return err
			}
		}
	}
	return nil
}

// copyThrough streams a region storage->staging->storage in blocks.
func copyThrough(c *core.Ctx, dram *topo.Node, dst, src *core.Buffer, off, size int64, blockKeys int) error {
	buf, err := c.AllocAt(dram, int64(blockKeys)*4)
	if err != nil {
		return err
	}
	defer c.Release(buf)
	for pos := int64(0); pos < size; pos += int64(blockKeys) * 4 {
		sz := int64(blockKeys) * 4
		if pos+sz > size {
			sz = size - pos
		}
		if err := c.MoveData(buf, src, 0, off+pos, sz); err != nil {
			return err
		}
		if err := c.MoveData(dst, buf, off+pos, 0, sz); err != nil {
			return err
		}
	}
	return nil
}
