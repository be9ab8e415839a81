// Package gpu implements a functional-plus-timed GPU model.
//
// The paper runs OpenCL kernels on an APU's integrated GPU and on a discrete
// FirePro W9100. Neither is available here, so this model substitutes both:
//
//   - Functionally, a kernel is a Go closure executed once per workgroup, so
//     out-of-core runs produce real, bit-checkable results. As in OpenCL,
//     the workgroups of one launch are not ordered against each other: a
//     launch spreads them over the host's CPUs and returns once all have
//     run, so a body must not write state another group of the same
//     launch reads or writes.
//   - Temporally, a launch charges virtual time from a roofline cost model:
//     each wave of resident workgroups takes max(compute, memory) time at
//     the device's sustained rates, scaled by a latency-hiding utilization
//     factor that grows with the number of resident groups (why the paper's
//     32-queue configuration wins in Fig. 11).
//
// The model also supports persistent workgroups — long-lived groups that pop
// tasks from queues — which is how the paper implements CPU–GPU work
// stealing at a leaf (§V-E, Figure 10).
package gpu

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/proc"
	"repro/internal/sim"
)

// Model describes a GPU's sustained performance characteristics.
type Model struct {
	Name string
	CUs  int // compute units

	// FLOPS is the sustained aggregate arithmetic rate in FLOP/s (peak
	// derated by the achievable kernel efficiency; the paper's GEMM baseline
	// reaches >80% of peak, which is folded in here).
	FLOPS float64
	// MemBW is the aggregate device/local memory bandwidth in bytes/s.
	MemBW float64

	// GroupsPerCU is the occupancy limit: resident workgroups per CU.
	GroupsPerCU int
	// LocalMemPerCU is the per-CU local (shared) memory in bytes; kernels
	// requesting more fail to launch.
	LocalMemPerCU int64
	// LaunchLatency is the fixed host-side cost of a kernel dispatch.
	LaunchLatency sim.Time

	// HideFactor tunes the latency-hiding curve: utilization with g
	// resident groups is g/(g + HideFactor*CUs). A quarter of a group per
	// CU of "slack" matches the modest queue-count sensitivity of Fig. 11.
	HideFactor float64
}

// GPU is a simulated device executing kernels in virtual time.
type GPU struct {
	model   Model
	engine  *sim.Engine
	compute *sim.Resource // serializes kernel execution (one kernel at a time)

	kernelTime  sim.Time
	kernelCount int64
}

// New creates a GPU bound to the engine.
func New(e *sim.Engine, m Model) *GPU {
	if m.CUs < 1 || m.FLOPS <= 0 || m.MemBW <= 0 {
		panic(fmt.Sprintf("gpu: underspecified model %+v", m))
	}
	if m.GroupsPerCU < 1 {
		m.GroupsPerCU = 4
	}
	if m.HideFactor <= 0 {
		m.HideFactor = 0.25
	}
	return &GPU{model: m, engine: e, compute: sim.NewResource(e, 1)}
}

// Model returns the performance description.
func (g *GPU) Model() Model { return g.model }

// ProcName implements proc.Processor.
func (g *GPU) ProcName() string { return g.model.Name }

// ProcKind implements proc.Processor.
func (g *GPU) ProcKind() proc.Kind { return proc.GPU }

// LLCSize implements proc.Processor: the local-memory size is the
// software/hardware management transition point at a GPU leaf.
func (g *GPU) LLCSize() int64 { return g.model.LocalMemPerCU }

var _ proc.Processor = (*GPU)(nil)

// Kernel describes one dispatch: per-workgroup arithmetic and device-memory
// traffic (for the roofline), local-memory need, and the functional body.
type Kernel struct {
	Name string
	// FlopsPerGroup and BytesPerGroup drive the cost model.
	FlopsPerGroup float64
	BytesPerGroup float64
	// LocalBytes is the local-memory allocation per workgroup.
	LocalBytes int64
	// Run executes workgroup i functionally. May be nil for timing-only
	// studies. Run may be called concurrently for distinct groups of one
	// launch, so groups must not share written state: each group writes
	// only its own part of the output, and reads nothing another group
	// writes.
	Run func(group int)
}

// utilization returns the latency-hiding factor for g resident groups.
func (m Model) utilization(groups int) float64 {
	if groups <= 0 {
		return 0
	}
	gf := float64(groups)
	return gf / (gf + m.HideFactor*float64(m.CUs))
}

// slots returns the device-wide resident-group capacity.
func (m Model) slots() int { return m.CUs * m.GroupsPerCU }

// LaunchTime returns the modeled duration of dispatching the kernel over
// the given number of workgroups, without executing or charging anything.
// The groups run in waves of at most slots resident groups; every full
// wave takes the same rounded time, so the sum is closed-form.
func (g *GPU) LaunchTime(k Kernel, groups int) sim.Time {
	t := g.model.LaunchLatency
	if groups <= 0 {
		return t
	}
	slots := g.model.slots()
	t += sim.Time(groups/slots) * g.model.waveTime(k, slots)
	if tail := groups % slots; tail > 0 {
		t += g.model.waveTime(k, tail)
	}
	return t
}

// waveTime is the duration of one wave of active (> 0) resident groups:
// the roofline of their work at the utilization they reach.
func (m Model) waveTime(k Kernel, active int) sim.Time {
	eta := m.utilization(active)
	compute := sim.Seconds(float64(active) * k.FlopsPerGroup / (m.FLOPS * eta))
	mem := sim.Seconds(float64(active) * k.BytesPerGroup / (m.MemBW * eta))
	return max(compute, mem)
}

// ErrLocalMem reports a kernel whose local-memory request exceeds the CU.
type ErrLocalMem struct {
	Kernel string
	Need   int64
	Have   int64
}

func (e *ErrLocalMem) Error() string {
	return fmt.Sprintf("gpu: kernel %s needs %d bytes of local memory, CU has %d",
		e.Kernel, e.Need, e.Have)
}

// Launch executes k over the given number of workgroups: the functional body
// runs for every group, and the calling process is charged the modeled time.
// Kernels serialize on the device, as on a single OpenCL in-order queue.
// The functional body runs to completion before the launch charges any
// time, so the schedule does not depend on how the groups were spread.
func (g *GPU) Launch(p *sim.Proc, k Kernel, groups int) (sim.Time, error) {
	if k.LocalBytes > g.model.LocalMemPerCU {
		return 0, &ErrLocalMem{Kernel: k.Name, Need: k.LocalBytes, Have: g.model.LocalMemPerCU}
	}
	if groups < 0 {
		return 0, fmt.Errorf("gpu: kernel %s: negative group count %d", k.Name, groups)
	}
	if k.Run != nil {
		runGroups(k.Run, groups)
	}
	t := g.LaunchTime(k, groups)
	g.compute.Acquire(p)
	p.Sleep(t)
	g.compute.Release()
	g.kernelTime += t
	g.kernelCount++
	return t, nil
}

// runGroups calls run once for each group in [0, groups), in contiguous
// ranges on min(GOMAXPROCS, groups) goroutines, and returns when every
// range has. The calling goroutine runs the first range, so at width 1 this
// is a loop over the groups in order. A panic in a group ends its range;
// once all ranges have returned, the panic of the lowest such group is
// raised again here, which is the one a loop in group order would raise.
func runGroups(run func(int), groups int) {
	width := min(runtime.GOMAXPROCS(0), groups)
	if width == 0 {
		return
	}
	panics := make([]any, width)
	var wg sync.WaitGroup
	wg.Add(width - 1)
	for w := 1; w < width; w++ {
		go func() {
			defer wg.Done()
			panics[w] = runRange(run, w*groups/width, (w+1)*groups/width)
		}()
	}
	panics[0] = runRange(run, 0, groups/width)
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
}

// runRange runs groups [g0, g1) in order and returns the value of a panic
// that ended it, or nil.
func runRange(run func(int), g0, g1 int) (panicked any) {
	defer func() { panicked = recover() }()
	for g := g0; g < g1; g++ {
		run(g)
	}
	return nil
}

// GroupTaskTime returns the time for one persistent workgroup to execute a
// task of the given cost while `resident` groups share the device. Aggregate
// throughput saturates via the latency-hiding curve, so few large groups run
// below peak — the effect behind the paper's queue-count sweep.
func (g *GPU) GroupTaskTime(resident int, flops, bytes float64) sim.Time {
	if resident < 1 {
		resident = 1
	}
	eta := g.model.utilization(resident)
	perGroupFLOPS := g.model.FLOPS * eta / float64(resident)
	perGroupBW := g.model.MemBW * eta / float64(resident)
	compute := sim.Seconds(flops / perGroupFLOPS)
	mem := sim.Seconds(bytes / perGroupBW)
	if mem > compute {
		return mem
	}
	return compute
}

// Stats returns cumulative kernel busy time and dispatch count.
func (g *GPU) Stats() (busy sim.Time, kernels int64) {
	return g.kernelTime, g.kernelCount
}

// ResetStats zeroes the cumulative counters.
func (g *GPU) ResetStats() { g.kernelTime, g.kernelCount = 0, 0 }
