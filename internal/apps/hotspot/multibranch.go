package hotspot

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topo"
)

// This file exercises the asymmetric, multi-branch trees of the paper's
// Figure 2: a storage root with several staging children, each with its own
// processor. §V-E: "The system is subject to load imbalance when uneven
// workloads are assigned to different subtrees. Northup's topological tree
// structure is able to naturally support dynamic load balancing when tree
// nodes store information such as on-going tasks at different subtrees."
//
// Chunks are tracked in a root-level work queue (Listing 1's work_queue on
// the root node); each branch runs a worker that pops the next chunk, pulls
// it into its own staging memory, computes on its own processor, and writes
// the result back. Faster branches naturally take more chunks.

// BranchPolicy selects how chunks are assigned to subtrees.
type BranchPolicy int

const (
	// StaticPartition splits chunks evenly across branches up front: the
	// imbalance-prone baseline.
	StaticPartition BranchPolicy = iota
	// DynamicQueue lets branches pop chunks from a shared root queue as
	// they finish: the tree-supported balancing of §V-E.
	DynamicQueue
)

// String names the policy.
func (p BranchPolicy) String() string {
	if p == StaticPartition {
		return "static"
	}
	return "dynamic"
}

// MultiBranchConfig parameterizes a multi-branch stencil run.
type MultiBranchConfig struct {
	N        int
	Seed     int64
	ChunkDim int
	Iters    int
	Policy   BranchPolicy
}

// MultiBranchResult reports the run and the per-branch chunk counts.
type MultiBranchResult struct {
	Temp           []float32
	Stats          core.RunStats
	ChunksByBranch []int
}

// RunMultiBranch executes one out-of-core pass with chunks spread across
// all of the root's staging branches. Each branch must be a memory node
// with a GPU at or one level below it (the branch node itself may be the
// leaf). Borders are taken from the pass-start state, as in RunNorthup; the
// result is identical to the single-branch blocked execution regardless of
// policy or branch count. A branch that fails (a chunk it cannot stage, a
// missing processor) fails the run.
func RunMultiBranch(rt *core.Runtime, cfg MultiBranchConfig) (*MultiBranchResult, error) {
	if cfg.N <= 0 || cfg.ChunkDim <= 0 || cfg.N%cfg.ChunkDim != 0 || cfg.ChunkDim%BlockDim != 0 {
		return nil, fmt.Errorf("hotspot: invalid multibranch config N=%d chunk=%d", cfg.N, cfg.ChunkDim)
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 60
	}
	root := rt.Tree().Root()
	if root.Store == nil {
		return nil, fmt.Errorf("hotspot: tree root %v is not storage", root)
	}
	branches := root.Children
	if len(branches) < 1 {
		return nil, fmt.Errorf("hotspot: no staging branches under the root")
	}

	p := newProblem(rt, Config{N: cfg.N, Seed: cfg.Seed, Iters: cfg.Iters}, cfg.ChunkDim, launchSteps)
	temp, power, border := p.inputs()
	fIn, err := rt.CreateInput(root, "mb-temp-in", p.gridBytes, temp)
	if err != nil {
		return nil, err
	}
	fOut, err := rt.CreateInput(root, "mb-temp-out", p.gridBytes, nil)
	if err != nil {
		return nil, err
	}
	fP, err := rt.CreateInput(root, "mb-power", p.gridBytes, power)
	if err != nil {
		return nil, err
	}
	fB, err := rt.CreateInput(root, "mb-border", int64(p.chunks)*p.borderBytes, border)
	if err != nil {
		return nil, err
	}

	res := &MultiBranchResult{ChunksByBranch: make([]int, len(branches))}

	stats, err := rt.Run("hotspot-multibranch", func(c *core.Ctx) error {
		// The root work queue tracks chunk tasks (Listing 1); with the
		// static policy each branch gets its own pre-filled queue instead.
		var shared *sched.Deque[int]
		var perBranch []*sched.Deque[int]
		ids := make([]int, p.chunks)
		for i := range ids {
			ids[i] = i
		}
		if cfg.Policy == DynamicQueue {
			shared = sched.NewDeque[int]("root-chunks")
			for _, id := range ids {
				shared.PushTail(id)
			}
			root.Queues = []sched.Monitor{shared}
		} else {
			perBranch = sched.Partition(ids, len(branches), "branch")
			mons := make([]sched.Monitor, len(perBranch))
			for i, q := range perBranch {
				mons[i] = q
			}
			root.Queues = mons
		}

		wg := sim.NewWaitGroup(c.Runtime().Engine())
		errs := make([]error, len(branches))
		for bi, branch := range branches {
			bi, branch := bi, branch
			wg.Add(1)
			c.Spawn(fmt.Sprintf("branch%d", bi), c.Node(), func(sub *core.Ctx) error {
				defer wg.Done()
				next := func() (int, bool) {
					if cfg.Policy == DynamicQueue {
						return shared.StealHead()
					}
					return perBranch[bi].StealHead()
				}
				for {
					ci, ok := next()
					if !ok {
						return nil
					}
					if err := p.branchChunk(sub, branch, ci, fIn, fOut, fP, fB); err != nil {
						errs[bi] = err
						return err
					}
					res.ChunksByBranch[bi]++
				}
			})
		}
		wg.Wait(c.Proc())
		return errors.Join(errs...)
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	if p.functional {
		if res.Temp, err = p.readBack(fOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// branchChunk runs chunk ci through one branch: load it into the branch's
// staging memory, run the leaf step below it, store it back.
func (p *problem) branchChunk(sub *core.Ctx, branch *topo.Node, ci int, fIn, fOut, fP, fB *core.Buffer) error {
	b, err := p.allocChunk(sub, branch)
	if err != nil {
		return err
	}
	defer b.release(sub)
	if err := sub.MoveData(b.tin, fIn, 0, int64(ci)*p.chunkBytes, p.chunkBytes); err != nil {
		return err
	}
	if err := sub.MoveData(b.pow, fP, 0, int64(ci)*p.chunkBytes, p.chunkBytes); err != nil {
		return err
	}
	if err := sub.MoveData(b.bord, fB, 0, borderOff(ci, p.d), p.borderBytes); err != nil {
		return err
	}
	err = sub.Descend(branch, func(dc *core.Ctx) error {
		return p.computeChunk(dc, b, ci)
	})
	if err != nil {
		return err
	}
	return sub.MoveData(fOut, b.tin, int64(ci)*p.chunkBytes, 0, p.chunkBytes)
}
