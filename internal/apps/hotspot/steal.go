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

// RunSteal executes the out-of-core stencil with queue-based leaf
// scheduling. When Mode is CPUGPU every staging branch's compute leaf needs
// a CPU attached (the APU topology built WithCPU); a tree where one lacks it
// is refused before anything is staged.
func RunSteal(rt *core.Runtime, cfg StealConfig) (*StealResult, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	inner := Config{N: cfg.M, Seed: cfg.Seed, ChunkDim: cfg.ChunkDim, Iters: cfg.Iters}
	res := &StealResult{}
	step := func(lc *core.Ctx, blk *Block, d, _ int) error {
		return stealCompute(lc, blk, d, cfg, res)
	}
	r, _, err := runChunked(rt, inner, DynamicQueue, step, cfg.Mode == CPUGPU)
	if err != nil {
		return nil, err
	}
	res.Result = *r
	return res, nil
}

// leafClass is one processor class's side of the leaf balancer: its
// queues, the time and charge of one row on it, its task counter, and when
// it is offline (nil: never).
type leafClass struct {
	proc     string // worker name prefix; the names are trace lanes
	queues   []*sched.Deque[rowTask]
	taskTime sim.Time
	charge   func(*core.Ctx, sim.Time)
	tasks    *int64
	offline  func() (until sim.Time, off bool)
	peer     *leafClass // the other class, the first victims of a dry worker
}

// drain runs worker qi of class cl through one iteration: it takes rows in
// sched.Take's victim order (its own tail, the other class's heads, its
// siblings' heads) until every queue is dry. An offline worker leaves its
// queue to the other class's thieves and sits out the iteration; with no
// other class to fail over to it stalls until the outage window closes.
func (cl *leafClass) drain(sub *core.Ctx, qi int, res *StealResult, runRow func(rowTask)) {
	for {
		if cl.offline != nil {
			if until, off := cl.offline(); off {
				if len(cl.peer.queues) > 0 {
					return
				}
				sub.Proc().Sleep(until - sub.Proc().Now())
				continue
			}
		}
		t, src, ok := sched.Take(cl.queues, qi, cl.peer.queues)
		if !ok {
			return
		}
		if src != sched.FromOwn {
			res.Steals++
			if src == sched.FromOther && cl.peer.offline != nil {
				if _, off := cl.peer.offline(); off {
					res.Failovers++
					sub.Runtime().NoteFailover()
				}
			}
		}
		runRow(t)
		sub.Proc().Sleep(cl.taskTime)
		cl.charge(sub, cl.taskTime)
		*cl.tasks++
	}
}

// stealCompute runs cfg.Iters stencil iterations over one chunk using work
// queues. blk is nil in phantom mode. runChunked has checked that the leaf
// has the processors cfg.Mode needs.
func stealCompute(lc *core.Ctx, blk *Block, d int, cfg StealConfig, res *StealResult) error {
	rows := d / BlockDim
	tilesPerRow := (d + BlockDim - 1) / BlockDim
	rowFlops := float64(TileFlops) * float64(tilesPerRow)
	rowBytes := float64(TileBytes) * float64(tilesPerRow)
	engine := lc.Proc().Engine()
	nodeID := lc.Node().ID

	nq, cpuTime := cfg.GPUQueues, sim.Time(0)
	if cfg.Mode == CPUGPU {
		nq += CPUThreads
		cpuTime = lc.CPUModel().TaskTime(rowFlops, rowBytes)
	}

	// Persistent queues for the chunk's lifetime (refilled every
	// iteration), GPU queues first, CPU queues after.
	tasks := make([]rowTask, rows)
	for i := range tasks {
		tasks[i] = rowTask(i)
	}
	queues := sched.Partition(tasks, nq, "q")

	// GPU workgroups process rows faster, so stealing flows mostly from the
	// CPU queues to them; dry CPU threads steal from GPU queues too
	// (stealing is "across the CPU and the GPU", §V-E).
	gpu := &leafClass{proc: "gpu-wg", queues: queues[:cfg.GPUQueues],
		taskTime: lc.GPUModel().GroupTaskTime(cfg.GPUQueues, rowFlops, rowBytes),
		charge:   (*core.Ctx).ChargeGPU, tasks: &res.TasksByGPU}
	cpu := &leafClass{proc: "cpu-th", queues: queues[cfg.GPUQueues:], taskTime: cpuTime,
		charge: (*core.Ctx).ChargeCPU, tasks: &res.TasksByCPU}
	gpu.peer, cpu.peer = cpu, gpu
	// Under fault injection the GPU can go offline (drain degrades to the
	// CPU threads, or stalls in GPUOnly mode); the CPU class never does.
	if inj := lc.Runtime().Faults(); inj != nil {
		gpu.offline = func() (sim.Time, bool) {
			return inj.ProcOfflineAt(nodeID, fault.ClassGPU, engine.Now())
		}
	}

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

	for _, cl := range []*leafClass{gpu, cpu} {
		for qi := range cl.queues {
			workers.Add(1)
			lc.Spawn(fmt.Sprintf("%s%d", cl.proc, qi), lc.Node(), func(sub *core.Ctx) error {
				defer workers.Done()
				for it := 0; it < cfg.Iters; it++ {
					start[it].Wait(sub.Proc())
					cl.drain(sub, qi, res, runRow)
					done.Done()
				}
				return nil
			})
		}
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
