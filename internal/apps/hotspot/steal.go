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

// String names the mode, and an unknown one by its value.
func (m StealMode) String() string {
	switch m {
	case GPUOnly:
		return "gpu-only"
	case CPUGPU:
		return "cpu+gpu"
	}
	return fmt.Sprintf("StealMode(%d)", int(m))
}

// CPUThreads is the number of CPU worker threads (one per APU core).
const CPUThreads = 4

// StealConfig parameterizes a load-balancing run. M and ChunkDim correspond
// to the paper's (m, n): the square input lives on the SSD at dimension M
// and moves to main memory in ChunkDim-sized chunks. ChunkDim 0 derives
// the chunks from the staging capacity, as Config.ChunkDim does.
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
	if cfg.M <= 0 || cfg.ChunkDim < 0 ||
		cfg.ChunkDim > 0 && (cfg.M%cfg.ChunkDim != 0 || cfg.ChunkDim%BlockDim != 0) {
		return fmt.Errorf("hotspot: invalid steal config M=%d chunk=%d", cfg.M, cfg.ChunkDim)
	}
	if cfg.Mode != GPUOnly && cfg.Mode != CPUGPU {
		return fmt.Errorf("hotspot: StealConfig.Mode=%v invalid (want GPUOnly or CPUGPU)", cfg.Mode)
	}
	// Zero means the default; a negative value is refused, not read as it.
	for _, f := range []struct {
		name string
		v    *int
		def  int
	}{{"Iters", &cfg.Iters, 60}, {"GPUQueues", &cfg.GPUQueues, 32}} {
		switch {
		case *f.v < 0:
			return fmt.Errorf("hotspot: StealConfig.%s=%d invalid (0 means the default, %d)", f.name, *f.v, f.def)
		case *f.v == 0:
			*f.v = f.def
		}
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
	r, err := runChunked(rt, inner, step, cfg.Mode == CPUGPU)
	if err != nil {
		return nil, err
	}
	res.Result = *r
	res.Failovers = r.Stats.Resilience.Failovers
	return res, nil
}

// leafClass is one processor class's side of the leaf balancer: its
// queues, the time and busy-time category of one row on it, its task
// counter, and when it is offline (nil: never).
type leafClass struct {
	name     string // worker name prefix; the names are trace lanes
	queues   []*sched.Deque[rowTask]
	taskTime sim.Time
	cat      trace.Category
	tasks    *int64
	offline  func() (until sim.Time, off bool)
	peer     *leafClass // the other class, the first victims of a dry worker
}

// leafRun is the state one chunk's workers share with the chunk's proc,
// which refills the queues and starts each Jacobi iteration.
type leafRun struct {
	lc     *core.Ctx
	engine *sim.Engine
	runRow func(rowTask)
	// queued counts the rows still in the chunk's queues this iteration: a
	// worker that reads zero is dry without probing every queue.
	queued int
	// started is set when iteration 0 starts; idle holds the workers
	// waiting for the next iteration, in the order they went dry (or, for
	// iteration 0, started).
	started bool
	idle    []*worker
	// done is the iteration barrier the chunk's proc waits on.
	done *sim.WaitGroup
}

// startIteration releases every idle worker, in the order it went idle.
func (r *leafRun) startIteration() {
	r.started = true
	for _, w := range r.idle {
		r.engine.At(r.engine.Now(), w.next)
	}
	r.idle = r.idle[:0]
}

// goDry ends w's iteration: it passes the barrier and waits for the next.
func (r *leafRun) goDry(w *worker) {
	r.done.Done()
	r.idle = append(r.idle, w)
}

// worker is one persistent GPU workgroup or CPU thread (the paper's
// persistent workgroups): a chain of engine callbacks, one per row it runs,
// that lives for the chunk.
type worker struct {
	run   *leafRun
	cl    *leafClass
	qi    int
	track string // the worker's trace lane
	busy  bool   // a row is running; the next step charges it
	next  func() // step, bound once
}

// start is the worker's first event, where a spawned proc's first
// resumption would be: it joins iteration 0 if that has started, or waits
// for it.
func (w *worker) start() {
	if !w.run.started {
		w.run.idle = append(w.run.idle, w)
		return
	}
	w.step()
}

// step is one link of the chain. It charges the row that just finished,
// then takes the next row in sched.Take's victim order (its own tail, the
// other class's heads, its siblings' heads) and runs it, scheduling itself
// for when the row completes, until every queue is dry. An offline worker
// leaves its queue to the other class's thieves and sits out the
// iteration; with no other class to fail over to it stalls until the
// outage window closes.
func (w *worker) step() {
	cl, r := w.cl, w.run
	if w.busy {
		w.busy = false
		r.lc.ChargeTask(w.track, cl.cat, cl.taskTime)
		*cl.tasks++
	}
	if cl.offline != nil {
		if until, off := cl.offline(); off {
			if len(cl.peer.queues) > 0 {
				r.goDry(w)
			} else {
				r.engine.At(until, w.next)
			}
			return
		}
	}
	if r.queued == 0 {
		r.goDry(w)
		return
	}
	t, src, ok := sched.Take(cl.queues, w.qi, cl.peer.queues)
	if !ok {
		panic(fmt.Sprintf("hotspot: %s found no row with %d queued", w.track, r.queued))
	}
	r.queued--
	if src == sched.FromOther && cl.peer.offline != nil {
		if _, off := cl.peer.offline(); off {
			r.lc.Runtime().NoteFailover()
		}
	}
	r.runRow(t)
	w.busy = true
	r.engine.At(r.engine.Now()+cl.taskTime, w.next)
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
	gpu := &leafClass{name: "gpu-wg", queues: queues[:cfg.GPUQueues],
		taskTime: lc.GPUModel().GroupTaskTime(cfg.GPUQueues, rowFlops, rowBytes),
		cat:      trace.GPUCompute, tasks: &res.TasksByGPU}
	cpu := &leafClass{name: "cpu-th", queues: queues[cfg.GPUQueues:], taskTime: cpuTime,
		cat: trace.CPUCompute, tasks: &res.TasksByCPU}
	gpu.peer, cpu.peer = cpu, gpu
	// Under fault injection the GPU can go offline (its rows fail over to
	// the CPU threads, or it stalls in GPUOnly mode); the CPU class never
	// does.
	if inj := lc.Runtime().Faults(); inj != nil {
		gpu.offline = func() (sim.Time, bool) {
			return inj.ProcOfflineAt(nodeID, fault.ClassGPU, engine.Now())
		}
	}

	// Expose the queues on the tree node with the standard deque
	// telemetry, which the node's queue-depth gauge reads; detaching when
	// the chunk is done leaves nothing stale on the shared tree.
	detach := core.WatchDeques(lc, lc.Node(), queues)
	defer detach()

	run := &leafRun{lc: lc, engine: engine, queued: rows, done: sim.NewWaitGroup(engine),
		runRow: func(t rowTask) {
			if blk != nil {
				for tx := 0; tx < tilesPerRow; tx++ {
					blk.StepTile(int(t), tx)
				}
			}
		}}

	// Workers persist across iterations (the paper's persistent GPU
	// workgroups). Each iteration the chunk's proc starts them and waits
	// at the done barrier for all of them to go dry, then refills the
	// queues for the next one.
	for _, cl := range []*leafClass{gpu, cpu} {
		for qi := range cl.queues {
			w := &worker{run: run, cl: cl, qi: qi, track: fmt.Sprintf("%s%d", cl.name, qi)}
			w.next = w.step
			lc.SpawnCallback(w.start)
		}
	}
	for it := 0; it < cfg.Iters; it++ {
		if it > 0 {
			// Refill the queues for the next Jacobi step.
			for i, t := range tasks {
				queues[i%nq].PushTail(t)
			}
			run.queued = rows
		}
		// Sample the queue depth at each iteration barrier: full after the
		// refill, and (once the iteration drains) empty again — the sawtooth
		// a traced timeline shows per Jacobi step.
		lc.TraceCounter(trace.TrackQueue, "depth", int64(sched.TotalLen(queues)))
		run.done.Add(nq)
		run.startIteration()
		run.done.Wait(lc.Proc())
		lc.TraceCounter(trace.TrackQueue, "depth", int64(sched.TotalLen(queues)))
		if blk != nil {
			blk.Swap()
		}
	}
	pops, steals := sched.TotalStats(queues)
	res.Pops += pops
	res.Steals += steals
	return nil
}
