package hotspot

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
// Config.Policy picks how the queue is filled; Result.ChunksByBranch counts
// what each branch ran.

// BranchPolicy selects how chunks are assigned to subtrees.
type BranchPolicy int

const (
	// DynamicQueue lets branches pop chunks from a shared root queue as
	// they finish: the tree-supported balancing of §V-E, and the default.
	DynamicQueue BranchPolicy = iota
	// StaticPartition splits chunks evenly across branches up front: the
	// imbalance-prone baseline.
	StaticPartition
)

// String names the policy.
func (p BranchPolicy) String() string {
	if p == StaticPartition {
		return "static"
	}
	return "dynamic"
}
