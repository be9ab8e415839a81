package hotspot

import "repro/internal/core"

// This file names the branch policies of the asymmetric, multi-branch trees
// of the paper's Figure 2: a storage root with several staging children,
// each with its own processor. §V-E: "The system is subject to load
// imbalance when uneven workloads are assigned to different subtrees.
// Northup's topological tree structure is able to naturally support dynamic
// load balancing when tree nodes store information such as on-going tasks
// at different subtrees."
//
// Chunks are tracked in a root-level work queue (Listing 1's work_queue on
// the root node); each branch's pipeline pops the next chunk, pulls it into
// its own staging memory, computes on its own processor, and writes the
// result back (runChunked). Faster branches naturally take more chunks.

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

// RunMultiBranch executes one RunNorthup pass with chunks spread across all
// of the root's staging branches under cfg.Policy. Each branch must be a
// memory node with a GPU at or one level below it (the branch node itself
// may be the leaf). The result is identical to the single-branch blocked
// execution regardless of policy or branch count. A branch that fails (a
// chunk it cannot stage, a missing processor) fails the run.
func RunMultiBranch(rt *core.Runtime, cfg MultiBranchConfig) (*MultiBranchResult, error) {
	r, byBranch, err := runChunked(rt, Config{N: cfg.N, Seed: cfg.Seed, ChunkDim: cfg.ChunkDim, Iters: cfg.Iters},
		cfg.Policy, launchSteps, false)
	if err != nil {
		return nil, err
	}
	return &MultiBranchResult{Temp: r.Temp, Stats: r.Stats, ChunksByBranch: byBranch}, nil
}
