package hotspot

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file implements the paper's load-balancing case study (§V-E,
// Figures 10 and 11): HotSpot-2D spread simultaneously over the CPU and the
// GPU of a shared-virtual-memory APU, with lock-free work stealing.
//
// Per Figure 10: when a chunk reaches main memory it is broken into rows of
// 16-tall blocks; each row is a task pushed onto one of several queues. GPU
// persistent workgroups and CPU threads pop tasks from the tails of their
// own queues; a GPU workgroup that runs dry steals from the head of a CPU
// queue (GPU workgroups process tasks faster, so stealing flows that way).

// StealMode selects the leaf execution strategy of a RunSteal.
type StealMode int

const (
	// GPUOnly runs all tasks on GPU queues (Fig. 11's baseline).
	GPUOnly StealMode = iota
	// CPUGPU spreads tasks over CPU and GPU queues with stealing.
	CPUGPU
)

// String names the mode.
func (m StealMode) String() string {
	if m == GPUOnly {
		return "gpu-only"
	}
	return "cpu+gpu"
}

// CPUThreads is the number of CPU worker threads (one per APU core).
const CPUThreads = 4

// StealConfig parameterizes a load-balancing run. M and ChunkDim correspond
// to the paper's (m, n): the square input lives on the SSD at dimension M
// and moves to main memory in ChunkDim-sized chunks.
type StealConfig struct {
	M        int
	ChunkDim int
	Seed     int64
	// Iters is the per-pass stencil iteration count (default 60).
	Iters int
	// GPUQueues is the number of GPU work queues (the paper sweeps 8, 16,
	// 32).
	GPUQueues int
	Mode      StealMode
	// Depth is the chunk pipeline depth (default 1).
	Depth int
}

func (cfg *StealConfig) setDefaults() error {
	if cfg.M <= 0 || cfg.ChunkDim <= 0 ||
		cfg.M%cfg.ChunkDim != 0 || cfg.ChunkDim%BlockDim != 0 {
		return fmt.Errorf("hotspot: invalid steal config M=%d chunk=%d", cfg.M, cfg.ChunkDim)
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 60
	}
	if cfg.GPUQueues <= 0 {
		cfg.GPUQueues = 32
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 1
	}
	return nil
}

// StealResult extends Result with scheduling statistics.
type StealResult struct {
	Result
	// Steals counts tasks taken from a victim queue's head.
	Steals int64
	// Pops counts tasks taken by their own queue's worker (the owner path);
	// Pops+Steals is the total task-execution count the deques saw.
	Pops int64
	// TasksByGPU and TasksByCPU count task executions per processor class.
	TasksByGPU, TasksByCPU int64
	// Failovers counts GPU-queue tasks executed by a CPU thread while the
	// GPU was offline (fault-injected outages only).
	Failovers int64
}

// rowTask identifies one row of BlockDim-tall tiles within the chunk.
type rowTask int

// stealAcross tries the other processor class's queues first, then the
// thief's siblings (skipping its own queue, index ownIdx). fromOther
// reports whether the task was taken from the other class — what failover
// accounting needs when the other class's processors are offline.
func stealAcross(other, siblings []*sched.Deque[rowTask], ownIdx int) (t rowTask, fromOther, ok bool) {
	for _, victim := range other {
		if t, ok := victim.StealHead(); ok {
			return t, true, true
		}
	}
	if t, _, ok := sched.StealFrom(siblings, ownIdx); ok {
		return t, false, true
	}
	return 0, false, false
}

// RunSteal executes the out-of-core stencil with queue-based leaf
// scheduling. The runtime's tree must be the APU topology with a CPU
// attached when Mode is CPUGPU.
func RunSteal(rt *core.Runtime, cfg StealConfig) (*StealResult, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	inner := Config{
		N: cfg.M, Seed: cfg.Seed, ChunkDim: cfg.ChunkDim,
		Iters: cfg.Iters, Depth: cfg.Depth,
	}
	root := rt.Tree().Root()
	if root.Store == nil {
		return nil, fmt.Errorf("hotspot: steal run needs a storage root")
	}
	res := &StealResult{}
	step := func(lc *core.Ctx, blk *Block, d, _ int) error {
		return stealCompute(lc, blk, d, cfg, res)
	}
	r, err := runChunked(rt, inner, step)
	if err != nil {
		return nil, err
	}
	res.Result = *r
	return res, nil
}

// stealCompute runs cfg.Iters stencil iterations over one chunk using work
// queues. blk is nil in phantom mode.
func stealCompute(lc *core.Ctx, blk *Block, d int, cfg StealConfig, res *StealResult) error {
	g := lc.GPUModel()
	if g == nil {
		return fmt.Errorf("hotspot: no GPU at %v", lc.Node())
	}
	cpu := lc.CPUModel()
	if cfg.Mode == CPUGPU && cpu == nil {
		return fmt.Errorf("hotspot: CPU+GPU mode needs a CPU at the leaf (build the APU topology WithCPU)")
	}
	rows := d / BlockDim
	tilesPerRow := (d + BlockDim - 1) / BlockDim
	rowFlops := float64(TileFlops) * float64(tilesPerRow)
	rowBytes := float64(TileBytes) * float64(tilesPerRow)
	gpuTaskTime := g.GroupTaskTime(cfg.GPUQueues, rowFlops, rowBytes)
	var cpuTaskTime sim.Time
	if cpu != nil {
		cpuTaskTime = cpu.TaskTime(rowFlops, rowBytes)
	}

	engine := lc.Proc().Engine()

	// With fault injection active, the leaf scheduler degrades gracefully
	// when its GPU is taken offline: in CPUGPU mode offline workgroups stop
	// popping and their queued tasks fail over to the CPU threads through
	// the existing steal path; in GPUOnly mode there is nothing to fail over
	// to, so workgroups stall until the outage window closes.
	inj := lc.Runtime().Faults()
	nodeID := lc.Node().ID
	gpuOffline := func() (sim.Time, bool) {
		if inj == nil {
			return 0, false
		}
		return inj.ProcOfflineAt(nodeID, fault.ClassGPU, engine.Now())
	}

	nCPUQ := 0
	if cfg.Mode == CPUGPU {
		nCPUQ = CPUThreads
	}
	nq := cfg.GPUQueues + nCPUQ

	// Persistent queues for the chunk's lifetime (refilled every
	// iteration), GPU queues first, CPU queues after.
	tasks := make([]rowTask, rows)
	for i := range tasks {
		tasks[i] = rowTask(i)
	}
	queues := sched.Partition(tasks, nq, "q")
	gpuQueues := queues[:cfg.GPUQueues]
	cpuQueues := queues[cfg.GPUQueues:]

	// Expose the queues on the tree node with the standard deque
	// telemetry. The depth goes through this scheduler's own additive
	// slot, so concurrent jobs on the node sum instead of overwriting each
	// other; detaching and closing when the chunk is done leaves nothing
	// stale on the shared tree.
	depthSlot := lc.Runtime().NewQueueDepthSlot(nodeID)
	defer depthSlot.Close()
	detach := core.WatchDeques(lc, lc.Node(), depthSlot, queues)
	defer detach()

	runRow := func(t rowTask) {
		if blk != nil {
			for tx := 0; tx < tilesPerRow; tx++ {
				blk.StepTile(int(t), tx)
			}
		}
	}

	// Workers persist across iterations (the paper's persistent GPU
	// workgroups); a latch per iteration releases them and a WaitGroup
	// forms the inter-iteration barrier, after which queues are refilled.
	start := make([]*sim.Latch, cfg.Iters)
	for i := range start {
		start[i] = sim.NewLatch(engine)
	}
	done := sim.NewWaitGroup(engine)
	workers := sim.NewWaitGroup(engine)

	for qi := range gpuQueues {
		workers.Add(1)
		own := gpuQueues[qi]
		lc.Spawn(fmt.Sprintf("gpu-wg%d", qi), lc.Node(), func(sub *core.Ctx) error {
			defer workers.Done()
			qi := qi
			for it := 0; it < cfg.Iters; it++ {
				start[it].Wait(sub.Proc())
				for {
					if until, off := gpuOffline(); off {
						if cfg.Mode == CPUGPU {
							// Leave the rest of this queue to the CPU
							// thieves and sit out the iteration.
							break
						}
						// GPUOnly: nothing to fail over to, so stall
						// until the outage window closes.
						sub.Proc().Sleep(until - sub.Proc().Now())
						continue
					}
					t, ok := own.PopTail()
					if !ok {
						// Run dry: steal — from a CPU queue's head first
						// (the direction §V-E highlights), then from a
						// sibling GPU queue.
						if t, _, ok = stealAcross(cpuQueues, gpuQueues, qi); ok {
							res.Steals++
						} else {
							break
						}
					}
					runRow(t)
					sub.Proc().Sleep(gpuTaskTime)
					sub.ChargeGPU(gpuTaskTime)
					res.TasksByGPU++
				}
				done.Done()
			}
			return nil
		})
	}
	for qi := range cpuQueues {
		workers.Add(1)
		own := cpuQueues[qi]
		qi := qi
		lc.Spawn(fmt.Sprintf("cpu-th%d", qi), lc.Node(), func(sub *core.Ctx) error {
			defer workers.Done()
			for it := 0; it < cfg.Iters; it++ {
				start[it].Wait(sub.Proc())
				for {
					t, ok := own.PopTail()
					if !ok {
						// Dry CPU threads pull from GPU queues (stealing is
						// "across the CPU and the GPU", §V-E), keeping all
						// processors busy until the barrier.
						var fromGPU bool
						if t, fromGPU, ok = stealAcross(gpuQueues, cpuQueues, qi); ok {
							res.Steals++
							if fromGPU {
								if _, off := gpuOffline(); off {
									res.Failovers++
									lc.Runtime().NoteFailover()
								}
							}
						} else {
							break
						}
					}
					runRow(t)
					sub.Proc().Sleep(cpuTaskTime)
					sub.ChargeCPU(cpuTaskTime)
					res.TasksByCPU++
				}
				done.Done()
			}
			return nil
		})
	}

	for it := 0; it < cfg.Iters; it++ {
		if it > 0 {
			// Refill the queues for the next Jacobi step.
			for i, t := range tasks {
				queues[i%nq].PushTail(t)
			}
		}
		// Sample the queue depth at each iteration barrier: full after the
		// refill, and (once the iteration drains) empty again — the sawtooth
		// a traced timeline shows per Jacobi step. The metrics gauge sees the
		// same instants (plus every push/pop/steal through the hooks above).
		lc.TraceCounter(trace.TrackQueue, "depth", int64(sched.TotalLen(queues)))
		depthSlot.Set(int64(sched.TotalLen(queues)))
		done.Add(nq)
		start[it].Fire()
		done.Wait(lc.Proc())
		lc.TraceCounter(trace.TrackQueue, "depth", int64(sched.TotalLen(queues)))
		depthSlot.Set(int64(sched.TotalLen(queues)))
		if blk != nil {
			blk.Swap()
		}
	}
	workers.Wait(lc.Proc())
	pops, _ := sched.TotalStats(queues)
	res.Pops += pops
	return nil
}
