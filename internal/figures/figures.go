// Package figures regenerates the paper's evaluation artifacts: Figure 6
// (normalized runtime: in-memory vs SSD vs disk), Figure 7 (execution
// breakdown on the 2-level APU tree), Figure 8 (breakdown on the 3-level
// discrete-GPU tree), Figure 9 (faster-storage projection sweep), Figure 11
// (CPU+GPU work-stealing), and the §V-B runtime-overhead measurement.
//
// All drivers run the real runtime and applications in phantom
// (timing-only) mode at the paper's true input sizes — 16k/32k dense grids,
// 16M-row sparse matrices, a 2 GiB staging buffer — which a calibrated
// virtual clock makes feasible on a laptop. A Scale option shrinks every
// dimension coherently (inputs by scale^2 in bytes, capacities alongside)
// so the same shapes emerge in seconds for tests.
package figures

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// App identifies one of the paper's three case-study applications.
type App int

const (
	// GEMM is dense matrix multiply (§IV-A).
	GEMM App = iota
	// HotSpot is the HotSpot-2D thermal stencil (§IV-B).
	HotSpot
	// SpMV is CSR-Adaptive sparse matrix-vector multiply (§IV-C).
	SpMV
)

// Apps lists the applications in the paper's plotting order.
var Apps = []App{GEMM, HotSpot, SpMV}

// String names the app as the paper's figures do.
func (a App) String() string {
	switch a {
	case GEMM:
		return "dense-mm"
	case HotSpot:
		return "hotspot-2d"
	case SpMV:
		return "csr-adaptive"
	default:
		return fmt.Sprintf("app(%d)", int(a))
	}
}

// Storage selects the backing configuration of a run.
type Storage int

const (
	// InMemory is the all-in-DRAM baseline (no Northup I/O).
	InMemory Storage = iota
	// SSD is the 2-level tree rooted at the 1400/600 MB/s PCIe SSD.
	SSD
	// HDD is the 2-level tree rooted at the SATA disk drive.
	HDD
)

// String names the storage configuration.
func (s Storage) String() string {
	switch s {
	case InMemory:
		return "in-memory"
	case SSD:
		return "ssd"
	default:
		return "disk"
	}
}

// Options tune a figure regeneration.
type Options struct {
	// Scale divides the paper's linear input dimensions (1 = full paper
	// scale). Byte sizes and capacities shrink by Scale^2, so chunking
	// decisions — and therefore figure shapes — are preserved. Valid
	// values: 1, 2, 4, 8.
	Scale int
	// SSDRead/SSDWrite override the SSD bandwidth in MB/s (Figure 9's
	// native-rerun validation); zero keeps the paper's 1400/600.
	SSDRead, SSDWrite float64
}

func (o Options) norm() (Options, error) {
	if o.Scale == 0 {
		o.Scale = 1
	}
	switch o.Scale {
	case 1, 2, 4, 8:
	default:
		return o, fmt.Errorf("figures: scale %d not in {1,2,4,8}", o.Scale)
	}
	return o, nil
}

// Paper-scale workload constants (§V-A).
const (
	paperDenseN    = 16384      // 16k x 16k float inputs
	paperSpmvRows  = 16_777_216 // "16 million rows"
	paperSpmvNNZ   = 16
	paperStageMiB  = 2048  // "2 GB of main memory ... staging buffer"
	paperInMemMiB  = 16384 // "16 GB memory holding the entire working set"
	paperHotChunk  = 8192  // "8k x 8k blocking size is used in DRAM"
	paperGPUMemMiB = 16384 // W9100: 16 GiB device memory
)

// denseN returns the dense input dimension at this scale.
func (o Options) denseN() int { return paperDenseN / o.Scale }

// spmvRows returns the sparse row count at this scale.
func (o Options) spmvRows() int { return paperSpmvRows / (o.Scale * o.Scale) }

// stageMiB returns the staging-buffer capacity at this scale.
func (o Options) stageMiB() int64 { return int64(paperStageMiB / (o.Scale * o.Scale)) }

// inMemMiB returns the in-memory baseline capacity at this scale.
func (o Options) inMemMiB() int64 { return int64(paperInMemMiB / (o.Scale * o.Scale)) }

// storageMiB returns the root storage capacity at this scale (inputs plus
// outputs plus headroom).
func (o Options) storageMiB() int64 { return int64(24576 / (o.Scale * o.Scale)) }

// newRuntime builds a phantom-mode runtime on the requested topology.
func (o Options) newRuntime(store Storage, withCPU bool) *core.Runtime {
	e := sim.NewEngine()
	opts := core.DefaultOptions()
	opts.Phantom = true
	var tree *topo.Tree
	switch store {
	case InMemory:
		tree = topo.InMemory(e, o.inMemMiB())
	default:
		choice := topo.SSD
		if store == HDD {
			choice = topo.HDD
		}
		tree = topo.APU(e, topo.APUConfig{
			Storage:      choice,
			StorageMiB:   o.storageMiB(),
			DRAMMiB:      o.stageMiB(),
			SSDReadMBps:  o.SSDRead,
			SSDWriteMBps: o.SSDWrite,
			WithCPU:      withCPU,
		})
	}
	return core.NewRuntime(e, tree, opts)
}

// newDiscreteRuntime builds the 3-level discrete-GPU topology (Figure 8).
func (o Options) newDiscreteRuntime(store Storage) *core.Runtime {
	e := sim.NewEngine()
	opts := core.DefaultOptions()
	opts.Phantom = true
	choice := topo.SSD
	if store == HDD {
		choice = topo.HDD
	}
	tree := topo.Discrete(e, topo.DiscreteConfig{
		Storage:    choice,
		StorageMiB: o.storageMiB(),
		DRAMMiB:    o.stageMiB(),
		GPUMemMiB:  int64(paperGPUMemMiB / (o.Scale * o.Scale)),
	})
	return core.NewRuntime(e, tree, opts)
}

// Measurement is the common result of one application run.
type Measurement struct {
	App       App
	Storage   Storage
	Elapsed   sim.Time
	Breakdown trace.Breakdown
}

// runApp executes one application on one topology and returns the
// measurement. rt must have been built by this package (phantom mode).
func runApp(app App, store Storage, rt *core.Runtime, o Options) (Measurement, error) {
	var stats core.RunStats
	var err error
	switch app {
	case GEMM:
		stats, err = runGEMM(rt, o)
	case HotSpot:
		stats, err = runHotSpot(rt, store, o)
	case SpMV:
		stats, err = runSpMV(rt, o)
	}
	if err != nil {
		return Measurement{}, fmt.Errorf("figures: %v on %v: %w", app, store, err)
	}
	return Measurement{App: app, Storage: store, Elapsed: stats.Elapsed,
		Breakdown: stats.Breakdown}, nil
}
