package spmv

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/taskgraph"
)

// RunTasks executes out-of-core SpMV as an extent-declared task graph: one
// task per (iteration, shard) reading the shard's row_ptr/col_id/data extents
// from storage plus the resident x vector, and writing its row range of the
// staged y. Shards within an iteration write disjoint y rows and so run in
// any order; the power-iteration normalize task reads all of y and writes x,
// which serializes iterations through extent overlap alone — no hand-wired
// barriers. Matrix extents recur verbatim every iteration, so with affinity
// on the scorer starts each pass from the shards still resident in the
// staging cache instead of streaming back in the order that just evicted
// them. Shards are sized for the worker pool, not for a pipeline depth, so
// it refuses Config.Depth rather than ignore it.
func RunTasks(rt *core.Runtime, cfg Config, opts taskgraph.Options) (*Result, *taskgraph.Stats, error) {
	if cfg.Depth != 0 {
		return nil, nil, fmt.Errorf("spmv: the task graph does not honour Config.Depth: it sizes shards for the worker pool; RunNorthup does")
	}
	p, err := newProblem(rt, cfg)
	if err != nil {
		return nil, nil, err
	}
	// Shards are sized for the worker pool: each in-flight task holds one
	// shard's extents pinned at the staging level.
	if err := p.planShards(opts.Width()); err != nil {
		return nil, nil, err
	}

	var tstats *taskgraph.Stats
	stats, err := rt.Run("spmv-tasks", func(c *core.Ctx) error {
		return p.withVectors(c, func(v vectors) error {
			// The graph: iterations of parallel shard tasks, serialized
			// through the normalize task's extent overlaps (it reads the
			// whole of y and rewrites x, so every next-iteration shard waits
			// on it and it waits on every shard of its own iteration).
			g := taskgraph.New()
			for iter := 0; iter < p.cfg.Iters; iter++ {
				for _, sh := range p.shards {
					sh := sh
					rowOff, rowLen := sh.rowExtent()
					off, n := p.nnzExtent(sh)
					g.Add(&taskgraph.Task{
						Name: fmt.Sprintf("spmv-shard[%d:%d]", sh.r0, sh.r1),
						Kind: "spmv-shard",
						Reads: []taskgraph.Extent{
							{Buf: p.fRow, Off: rowOff, Len: rowLen},
							{Buf: p.fCol, Off: off, Len: n},
							{Buf: p.fVal, Off: off, Len: n},
							{Buf: v.xLeaf, Off: 0, Len: p.vecBytes},
						},
						Writes: []taskgraph.Extent{
							{Buf: v.yStage, Off: int64(sh.r0) * 4, Len: int64(sh.r1-sh.r0) * 4},
						},
						Cost: float64(n / 4),
						Run: func(sub *core.Ctx) error {
							s, err := p.loadShard(sub, sh)
							if err != nil {
								return err
							}
							err = p.shardStep(sub, sh, s, v)
							sub.Unpin(s.val)
							sub.Unpin(s.col)
							sub.Unpin(s.row)
							return err
						},
					})
				}
				if iter < p.cfg.Iters-1 {
					writes := []taskgraph.Extent{{Buf: v.xStage, Off: 0, Len: p.vecBytes}}
					if v.xLeaf != v.xStage {
						writes = append(writes, taskgraph.Extent{Buf: v.xLeaf, Off: 0, Len: p.vecBytes})
					}
					g.Add(&taskgraph.Task{
						Name:   fmt.Sprintf("spmv-normalize[%d]", iter),
						Kind:   "spmv-normalize",
						Reads:  []taskgraph.Extent{{Buf: v.yStage, Off: 0, Len: p.vecBytes}},
						Writes: writes,
						Cost:   float64(p.cfg.N),
						Run:    func(sub *core.Ctx) error { return p.normalize(sub, v) },
					})
				}
			}

			if opts.Node == nil {
				opts.Node = p.dram
			}
			var gerr error
			tstats, gerr = g.Run(c, opts)
			return gerr
		})
	})
	if err != nil {
		return nil, tstats, err
	}
	res, err := p.result(stats)
	return res, tstats, err
}
