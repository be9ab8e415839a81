package gemm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/taskgraph"
)

// RunTasks executes out-of-core GEMM as an extent-declared task graph: one
// task per C block, reading its A row shard and B column shard from storage
// and writing its block of C. The blocks are independent (every write extent
// is disjoint), so the whole cb x cb grid is a parallel graph and the
// scheduler's placement order decides how often each shard crosses the
// storage edge. With affinity on, the residency scorer walks the grid in a
// shard-reuse order (the generalization of §IV-A's hand-wired row-shard
// reuse); with affinity off, locality-blind stealing reloads whatever the
// deque order happens to evict first. The graph has no chunk pipeline,
// staged B or streamed moves, so it refuses Sequential, StageB and
// Streamed rather than ignore them.
func RunTasks(rt *core.Runtime, cfg Config, opts taskgraph.Options) (*Result, *taskgraph.Stats, error) {
	var ignored string
	switch {
	case cfg.Sequential:
		ignored = "Sequential"
	case cfg.StageB:
		ignored = "StageB"
	case cfg.Streamed:
		ignored = "Streamed"
	}
	if ignored != "" {
		return nil, nil, fmt.Errorf("gemm: the task graph does not honour Config.%s; RunNorthup does", ignored)
	}
	p, err := newProblem(rt, cfg, 0)
	if err != nil {
		return nil, nil, err
	}
	shardBytes, blockBytes := p.shardBytes, p.blockBytes

	// One task per C block. A row shards live at row-major offsets of the A
	// file; B column shards at shard-major offsets of the presharded B file.
	g := taskgraph.New()
	for i := 0; i < p.cb; i++ {
		for j := 0; j < p.cb; j++ {
			i, j := i, j
			cOff := p.blockOff(i, j)
			g.Add(&taskgraph.Task{
				Name: fmt.Sprintf("gemm-block[%d,%d]", i, j),
				Kind: "gemm-block",
				Reads: []taskgraph.Extent{
					{Buf: p.fa, Off: int64(i) * shardBytes, Len: shardBytes},
					{Buf: p.fb, Off: int64(j) * shardBytes, Len: shardBytes},
				},
				Writes: []taskgraph.Extent{
					{Buf: p.fc, Off: cOff, Len: blockBytes},
				},
				Cost: 2 * float64(p.s) * float64(p.s) * float64(p.n),
				Run: func(sub *core.Ctx) error {
					aShard, err := sub.MoveDataDownCached(p.dram, p.fa, int64(i)*shardBytes, shardBytes)
					if err != nil {
						return err
					}
					defer sub.Unpin(aShard)
					bShard, err := sub.MoveDataDownCached(p.dram, p.fb, int64(j)*shardBytes, shardBytes)
					if err != nil {
						return err
					}
					defer sub.Unpin(bShard)
					blk, err := sub.AllocAt(p.dram, blockBytes)
					if err != nil {
						return err
					}
					defer sub.Release(blk)
					if err := p.multiply(sub, aShard, bShard, blk); err != nil {
						return err
					}
					return sub.MoveData(p.fc, blk, cOff, 0, blockBytes)
				},
			})
		}
	}

	var tstats *taskgraph.Stats
	stats, err := rt.Run("gemm-tasks", func(c *core.Ctx) error {
		if opts.Node == nil {
			opts.Node = p.dram
		}
		var gerr error
		tstats, gerr = g.Run(c, opts)
		return gerr
	})
	if err != nil {
		return nil, tstats, err
	}
	res, err := p.result(stats)
	return res, tstats, err
}
