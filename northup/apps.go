package northup

import (
	"repro/internal/apps/gemm"
	"repro/internal/apps/hotspot"
	"repro/internal/apps/oocsort"
	"repro/internal/apps/spmv"
	"repro/internal/sched"
	"repro/internal/taskgraph"
	"repro/internal/workload"
)

// This file re-exports the paper's three case-study applications (§IV) so
// downstream users can run them — or crib them as templates for their own
// recursive Northup programs — without reaching into internal packages.

// Dense matrix multiply (§IV-A).
type (
	// GEMMConfig parameterizes a dense-matrix-multiply run.
	GEMMConfig = gemm.Config
	// GEMMResult carries its output and measurements.
	GEMMResult = gemm.Result
)

// GEMM entry points. GEMMNorthup runs the in-memory baseline on a memory
// root and the out-of-core recursion on a storage root.
var (
	GEMMNorthup = gemm.RunNorthup
	// GEMMReference is the host oracle: C = A(n x k) * B(k x m).
	GEMMReference = gemm.Reference
)

// HotSpot-2D thermal stencil (§IV-B, §V-E).
type (
	// HotSpotConfig parameterizes a stencil run.
	HotSpotConfig = hotspot.Config
	// HotSpotResult carries its output and measurements.
	HotSpotResult = hotspot.Result
	// StealConfig parameterizes the CPU+GPU load-balancing variant.
	StealConfig = hotspot.StealConfig
	// StealResult extends HotSpotResult with scheduling statistics.
	StealResult = hotspot.StealResult
	// StealMode selects GPU-only or CPU+GPU leaf execution.
	StealMode = hotspot.StealMode
	// BranchPolicy selects static or dynamic chunk-to-subtree assignment
	// (HotSpotConfig.Policy, on asymmetric trees; build one with
	// MultiBranch).
	BranchPolicy = hotspot.BranchPolicy
)

// Branch policies for multi-branch runs.
const (
	// DynamicQueue balances subtrees through a shared root work queue (the
	// default).
	DynamicQueue = hotspot.DynamicQueue
	// StaticPartition splits chunks evenly across subtrees up front.
	StaticPartition = hotspot.StaticPartition
)

// HotSpotProfiledResult extends HotSpotResult with the §III-E mapping
// decisions.
type HotSpotProfiledResult = hotspot.ProfiledResult

// HotSpot entry points. HotSpotNorthup runs the in-memory baseline on a
// memory root, and on a storage root spreads its chunks over every staging
// subtree under HotSpotConfig.Policy.
var (
	HotSpotNorthup = hotspot.RunNorthup
	// HotSpotSteal runs the queue-based CPU+GPU work-stealing variant.
	HotSpotSteal = hotspot.RunSteal
	// HotSpotProfiled runs with profile-guided chunk placement (§III-E).
	HotSpotProfiled = hotspot.RunProfiled
	// HotSpotReference advances the full grid by global Jacobi steps.
	HotSpotReference = hotspot.Reference
	// HotSpotReferenceBlocked is the blocked-semantics oracle matching
	// out-of-core passes with more than one iteration.
	HotSpotReferenceBlocked = hotspot.ReferenceBlocked
)

// Leaf execution modes of the stealing variant.
const (
	// GPUOnly runs all leaf tasks on GPU queues.
	GPUOnly = hotspot.GPUOnly
	// CPUGPU spreads tasks over CPU and GPU queues with stealing.
	CPUGPU = hotspot.CPUGPU
)

// CSR-Adaptive sparse matrix-vector multiply (§IV-C).
type (
	// SpMVConfig parameterizes a SpMV run.
	SpMVConfig = spmv.Config
	// SpMVResult carries its output and measurements.
	SpMVResult = spmv.Result
	// CSR is a sparse matrix in compressed-sparse-row form.
	CSR = workload.CSR
	// SparseKind selects a synthetic sparse structure.
	SparseKind = workload.SparseKind
)

// SpMV entry points. SpMVNorthup runs the in-memory baseline on a memory
// root and the out-of-core recursion on a storage root.
var (
	SpMVNorthup = spmv.RunNorthup
	// SpMVReference is the host oracle: y = A x.
	SpMVReference = spmv.Reference
)

// Extent-declared task graphs and the data-affinity scheduler: tasks
// declare the buffer ranges they read and write plus a cost estimate, the
// graph derives dependencies from extent overlap, and placement is either
// locality-blind work stealing or residency-aware affinity scoring
// (estimated compute + estimated bytes to move, cache-resident bytes
// scoring zero).
type (
	// TaskExtent is a half-open byte range of a staged buffer.
	TaskExtent = taskgraph.Extent
	// Task is one unit of work with declared extents and cost.
	Task = taskgraph.Task
	// TaskGraph holds tasks plus the dependencies implied by their extents.
	TaskGraph = taskgraph.Graph
	// TaskOptions selects workers and the placement policy.
	TaskOptions = taskgraph.Options
	// TaskStats reports pops, steals, affinity picks and saved bytes.
	TaskStats = taskgraph.Stats
	// ProfileScheduler is the §III-E profile-guided mapper; its learned
	// state round-trips through ExportJSON/ImportJSON to warm-start runs.
	ProfileScheduler = sched.ProfileScheduler
)

// Task-graph entry points.
var (
	// NewTaskGraph returns an empty graph; Add tasks in program order.
	NewTaskGraph = taskgraph.New
	// GEMMTasks runs dense matrix multiply as a shard task graph.
	GEMMTasks = gemm.RunTasks
	// SpMVTasks runs the sparse power iteration as a chunk task graph.
	SpMVTasks = spmv.RunTasks
	// NewProfileScheduler returns a cold profile-guided mapper.
	NewProfileScheduler = sched.NewProfileScheduler
	// HotSpotProfiledWarm is HotSpotProfiled seeded with an imported
	// profile, skipping the exploration phase.
	HotSpotProfiledWarm = hotspot.RunProfiledWarm
)

// Out-of-core sorting: a fourth application demonstrating the combine
// phase of divide-and-conquer (sorted runs from the leaves, k-way merges
// on the way back up).
type (
	// SortConfig parameterizes an out-of-core sort.
	SortConfig = oocsort.Config
	// SortResult carries its output, run and merge-pass counts.
	SortResult = oocsort.Result
)

// Sort entry points.
var (
	// Sort runs the out-of-core merge sort.
	Sort = oocsort.Run
	// SortKeys generates the deterministic input sequence.
	SortKeys = oocsort.Keys
)

// Matrix Market I/O: feed real University of Florida collection files to
// SpMV via SpMVConfig.Matrix.
var (
	// ParseMatrixMarket reads coordinate-format Matrix Market input
	// (real/integer/pattern, general/symmetric) into CSR.
	ParseMatrixMarket = workload.ParseMatrixMarket
	// WriteMatrixMarket writes a CSR matrix in coordinate/real/general form.
	WriteMatrixMarket = workload.WriteMatrixMarket
)

// Synthetic input generators (the Florida-collection substitute).
var (
	// DenseInput returns a deterministic rows x cols float32 matrix.
	DenseInput = workload.Dense
	// SparseInput returns a deterministic CSR matrix.
	SparseInput = workload.Sparse
	// VectorInput returns a deterministic dense vector.
	VectorInput = workload.Vector
	// HotSpotGridInput returns a deterministic thermal problem.
	HotSpotGridInput = workload.HotSpotGrid
)

// Sparse structure kinds.
const (
	// SparseUniform gives regular short rows (CSR-Stream territory).
	SparseUniform = workload.SparseUniform
	// SparsePowerLaw gives heavy-tailed rows (CSR-Vector/VectorL).
	SparsePowerLaw = workload.SparsePowerLaw
	// SparseBanded concentrates non-zeros near the diagonal.
	SparseBanded = workload.SparseBanded
)
