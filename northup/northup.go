// Package northup is the public API of the Northup reproduction: a
// programming and runtime framework for divide-and-conquer execution on
// systems with heterogeneous memories and processors, after
//
//	Shuai Che, Jieming Yin. "Northup: Divide-and-Conquer Programming in
//	Systems with Heterogeneous Memories and Processors." IPPS 2019.
//
// A Northup program sees the machine as an asymmetric tree: the slowest
// storage is the root (level 0), faster memories are its descendants, and
// processors (CPU/GPU models) attach to the leaves. Applications are
// recursive functions over a task context:
//
//	rt.Run("app", func(c *northup.Ctx) error {
//		var step func(c *northup.Ctx) error
//		step = func(c *northup.Ctx) error {
//			if c.IsLeaf() {
//				// computation at leaf nodes
//				_, err := c.LaunchKernel(kernel, groups)
//				return err
//			}
//			for each chunk {
//				child := c.Children()[0]
//				buf, _ := c.AllocAt(child, chunkSize) // setup_buffers
//				c.MoveDataDown(buf, src, 0, off, n)   // data_down
//				if err := c.Descend(child, step); err != nil { // northup_spawn
//					return err
//				}
//				c.MoveDataUp(dst, buf, off, 0, n) // data_up
//				c.Release(buf)
//			}
//			return nil
//		}
//		return step(c)
//	})
//
// Data management uses the paper's unified interface (Table I): buffers are
// opaque handles valid on any node kind — file storage, DRAM, GPU device
// memory — and MoveData dispatches on the endpoints' storage types, exactly
// like the paper's move_data wrapper.
//
// Because real heterogeneous hardware (APUs, discrete GPUs, PCIe SSDs) is
// simulated, every run is deterministic: devices charge virtual time on a
// discrete-event engine while computation executes functionally on the
// host, so results are bit-checkable and timing reproduces the paper's
// relative measurements. See DESIGN.md for the substitution inventory.
//
// # Paper-to-API name map
//
//	fetch_node_type()     Node.Kind()
//	get_parent()          Ctx.Parent() / Node.Parent
//	get_children_list()   Ctx.Children() / Node.Children
//	get_cur_treenode()    Ctx.Node()
//	get_level()           Ctx.Level()
//	get_max_treelevel()   Ctx.MaxLevel()
//	alloc(size, node)     Ctx.AllocAt(node, size)
//	move_data(...)        Ctx.MoveData(dst, src, dstOff, srcOff, n)
//	move_data_down(...)   Ctx.MoveDataDown(dst, src, dstOff, srcOff, n)
//	move_data_up(...)     Ctx.MoveDataUp(dst, src, dstOff, srcOff, n)
//	release(ptr)          Ctx.Release(buf)
//	northup_spawn(f(...)) Ctx.Descend(child, f) / Ctx.Spawn(name, node, f)
package northup

import (
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/gpu"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Core runtime types.
type (
	// Engine is the deterministic discrete-event simulation engine all
	// devices and processes of one system share.
	Engine = sim.Engine
	// Proc is a simulated process (a task's execution vehicle).
	Proc = sim.Proc
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Runtime executes Northup programs on one topological tree.
	Runtime = core.Runtime
	// Options tune runtime bookkeeping and phantom (timing-only) mode.
	Options = core.Options
	// Ctx is the task context of a recursive Northup function.
	Ctx = core.Ctx
	// Buffer is the opaque handle of the unified data-management API.
	Buffer = core.Buffer
	// RunStats reports a run's elapsed virtual time and breakdown.
	RunStats = core.RunStats
	// Join is the handle of an asynchronously spawned task.
	Join = core.Join
	// CacheOptions configures the reuse-aware staging cache interposed on
	// the Ctx.MoveDataDownCached path (capacity, LRU policy, prefetch).
	CacheOptions = core.CacheOptions
	// CacheStats reports staging-cache traffic (hits, misses, evictions,
	// prefetches); also embedded in every Breakdown.
	CacheStats = trace.CacheStats
	// StreamOptions tunes the streaming transfer engine behind
	// Ctx.MoveDataDownStreamed / Ctx.MoveDataUpStreamed: sub-chunk count
	// (0 = adaptive), staging-ring depth, and the per-chunk consumer hook.
	StreamOptions = core.StreamOptions
	// StreamStats reports streaming-engine activity (streams, sub-chunks,
	// per-hop moves, bytes, peak pipeline and ring occupancy); read it with
	// Runtime.StreamStats.
	StreamStats = core.StreamStats
)

// Topology types.
type (
	// Tree is a validated Northup topology.
	Tree = topo.Tree
	// Node is one tree vertex: a memory/storage device plus any attached
	// processors.
	Node = topo.Node
	// Builder constructs trees programmatically.
	Builder = topo.Builder
	// NodeRef names a node under construction.
	NodeRef = topo.NodeRef
	// Spec is the declarative (JSON-loadable) topology description.
	Spec = topo.Spec
	// NodeSpec describes one node of a Spec.
	NodeSpec = topo.NodeSpec
)

// Device and processor types.
type (
	// DeviceProfile describes a memory or storage component.
	DeviceProfile = device.Profile
	// DeviceKind classifies devices (the paper's storage_type).
	DeviceKind = device.Kind
	// Processor is any compute element attached to a leaf.
	Processor = proc.Processor
	// CPUModel is the multicore CPU model.
	CPUModel = proc.CPUModel
	// GPU is the functional-plus-timed GPU model.
	GPU = gpu.GPU
	// GPUModel describes a GPU's sustained characteristics.
	GPUModel = gpu.Model
	// Kernel describes one GPU dispatch: cost model plus functional body.
	// As in OpenCL, the body may run concurrently for distinct groups of
	// one launch, so groups must not share written state.
	Kernel = gpu.Kernel
	// Breakdown accumulates the execution-time breakdown of a run.
	Breakdown = trace.Breakdown
)

// Device kinds (the dispatch alphabet of the unified move_data).
const (
	KindMem    = device.KindMem
	KindHBM    = device.KindHBM
	KindNVM    = device.KindNVM
	KindSSD    = device.KindSSD
	KindHDD    = device.KindHDD
	KindGPUMem = device.KindGPUMem
)

// Byte-size and time units.
const (
	KiB = device.KiB
	MiB = device.MiB
	GiB = device.GiB

	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewEngine returns an empty simulation engine with the clock at zero.
func NewEngine() *Engine { return sim.NewEngine() }

// NewBuilder returns a topology builder whose devices bind to e.
func NewBuilder(e *Engine) *Builder { return topo.NewBuilder(e) }

// NewRuntime creates a runtime executing on the tree. The engine must be
// the one the tree was built on.
func NewRuntime(e *Engine, t *Tree, opts Options) *Runtime {
	return core.NewRuntime(e, t, opts)
}

// DefaultOptions returns the standard runtime bookkeeping costs.
func DefaultOptions() Options { return core.DefaultOptions() }

// ParseSpec decodes a JSON topology spec.
func ParseSpec(data []byte) (*Spec, error) { return topo.ParseSpec(data) }

// BuildSpec instantiates a declarative topology on the engine.
func BuildSpec(e *Engine, s *Spec) (*Tree, error) { return topo.BuildSpec(e, s) }

// Calibrated device profiles (see internal/device for the constants).
var (
	// HDDProfile models the paper's SATA WD5000AAKX-class drive.
	HDDProfile = device.HDDProfile
	// SSDProfile models a PCIe SSD with the given read/write MB/s.
	SSDProfile = device.SSDProfile
	// NVMProfile models byte-addressable non-volatile memory.
	NVMProfile = device.NVMProfile
	// DRAMProfile models host DRAM.
	DRAMProfile = device.DRAMProfile
	// HBMProfile models die-stacked DRAM.
	HBMProfile = device.HBMProfile
	// GPUMemProfile models discrete-GPU device memory.
	GPUMemProfile = device.GPUMemProfile
)

// Calibrated processor constructors.
var (
	// APUGPU models the paper's integrated (Kaveri-class) GPU.
	APUGPU = gpu.APUGPU
	// DiscreteGPU models the FirePro W9100-class discrete GPU.
	DiscreteGPU = gpu.DiscreteGPU
	// APUCPU models the APU's 4-core CPU.
	APUCPU = gpu.APUCPU
	// NewCPU builds a custom CPU model.
	NewCPU = proc.NewCPU
	// NewGPU builds a custom GPU model.
	NewGPU = gpu.New
	// NewPIM builds a processor-in-memory model: attach it to the memory
	// node it lives in and compute there with Ctx.RunPIM (§VI).
	NewPIM = proc.NewPIM
)

// Standard evaluation topologies (§V-A, §VI).
type (
	// APUConfig parameterizes the 2-level out-of-core topology.
	APUConfig = topo.APUConfig
	// DiscreteConfig parameterizes the 3-level discrete-GPU topology.
	DiscreteConfig = topo.DiscreteConfig
	// NVMConfig parameterizes the NVM-augmented deep hierarchy.
	NVMConfig = topo.NVMConfig
)

// Standard topology constructors and storage choices.
var (
	// APU builds storage -> DRAM(+GPU[,CPU]).
	APU = topo.APU
	// Discrete builds storage -> DRAM(+CPU) -> GPU memory(+GPU).
	Discrete = topo.Discrete
	// APUWithNVM builds storage -> NVM -> DRAM(+GPU[,CPU]).
	APUWithNVM = topo.APUWithNVM
	// MultiBranch builds an asymmetric tree with several staging subtrees.
	MultiBranch = topo.MultiBranch
	// InMemory builds the single-level in-memory baseline.
	InMemory = topo.InMemory
)

// TopoMultiBranchConfig parameterizes the asymmetric multi-subtree
// topology.
type TopoMultiBranchConfig = topo.MultiBranchConfig

// Storage choices for the standard topologies.
const (
	// SSD selects the 1400/600 MB/s PCIe SSD root.
	SSD = topo.SSD
	// HDD selects the SATA disk-drive root.
	HDD = topo.HDD
)

// PiecesToFit returns how many equal pieces a working set must be divided
// into so that buffersPerPiece pieces fit freeBytes simultaneously — the
// §III-B capacity-driven blocking-size helper.
func PiecesToFit(totalBytes, freeBytes int64, buffersPerPiece int) int {
	return core.PiecesToFit(totalBytes, freeBytes, buffersPerPiece)
}
