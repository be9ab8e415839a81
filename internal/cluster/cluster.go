// Package cluster is a prototype of the paper's stated future work
// (§VII: "Future work includes extending the model to support distributed
// systems"): several simulated Northup machines connected by a network
// fabric, sharing one virtual clock.
//
// Each machine is a complete topological tree with its own runtime; the
// fabric provides timed point-to-point transfers and the collectives a
// distributed divide-and-conquer needs (scatter, broadcast, gather).
// Per §VI's observation that NVM bandwidth "is already beginning to eclipse
// available point-to-point network bandwidth", the default fabric is slower
// than the NVM device model — so keeping data node-local wins, which is the
// design pressure Northup's per-node hierarchy responds to.
package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Fabric models the interconnect: full-duplex point-to-point links of the
// given bandwidth, with a per-message latency. Concurrency is limited to
// one in-flight transfer per (src,dst) direction pair, approximated by a
// capacity-per-machine resource.
type Fabric struct {
	BW      float64  // bytes/s per link
	Latency sim.Time // per-message cost

	ports []*sim.Resource // one per machine: serializes its NIC
}

// DefaultFabric returns an InfiniBand-class fabric: 5 GB/s per link, 2 µs
// latency — deliberately below the NVM profile's 6.5 GB/s read bandwidth.
func DefaultFabric() FabricSpec {
	return FabricSpec{BW: 5e9, Latency: sim.Microseconds(2)}
}

// FabricSpec parameterizes the fabric.
type FabricSpec struct {
	BW      float64
	Latency sim.Time
}

// Machine is one node of the cluster: a Northup tree and its runtime.
type Machine struct {
	ID   int
	Tree *topo.Tree
	RT   *core.Runtime
}

// Cluster holds the machines and fabric on one shared engine.
type Cluster struct {
	engine   *sim.Engine
	machines []*Machine
	fabric   *Fabric
}

// New builds a cluster of n machines. buildTree constructs machine i's
// topology on the shared engine; opts apply to every machine's runtime.
//
// A non-nil opts.Metrics turns continuous metrics on for the whole cluster,
// but each machine gets its own fresh registry (and, when opts.Sampler is
// set, its own sampler at the same tick) so per-machine accounting stays
// separable — read them via Machine(i).RT.Metrics(), and roll them up into
// one cluster-wide registry with MergedMetrics. The registry passed in opts
// itself is not shared with any machine.
func New(e *sim.Engine, n int, spec FabricSpec, opts core.Options,
	buildTree func(e *sim.Engine, i int) *topo.Tree) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: %d machines", n)
	}
	cl := &Cluster{
		engine: e,
		fabric: &Fabric{BW: spec.BW, Latency: spec.Latency},
	}
	for i := 0; i < n; i++ {
		mopts := opts
		if opts.Metrics != nil {
			mopts.Metrics = obs.NewRegistry()
			if opts.Sampler != nil {
				mopts.Sampler = obs.NewSampler(mopts.Metrics,
					obs.SamplerOptions{Tick: opts.Sampler.Tick()})
			}
		}
		tree := buildTree(e, i)
		cl.machines = append(cl.machines, &Machine{
			ID: i, Tree: tree, RT: core.NewRuntime(e, tree, mopts),
		})
		cl.fabric.ports = append(cl.fabric.ports, sim.NewResource(e, 1))
	}
	return cl, nil
}

// MergedMetrics merges every machine's registry into one fresh
// cluster-wide registry: counters and histogram buckets add (the
// fixed bucket bounds make the merge associative, so the result is
// independent of machine order), and additive gauges like queue depth sum.
// Ratio gauges (cache hit rate, bandwidth utilization) are per-machine
// quantities; recompute cluster-wide ratios from the merged counters rather
// than reading them off the merged registry. Returns nil when the cluster
// was built without metrics.
func (cl *Cluster) MergedMetrics() *obs.Registry {
	merged := obs.NewRegistry()
	any := false
	for _, m := range cl.machines {
		reg := m.RT.Metrics()
		if reg == nil {
			continue
		}
		merged.Merge(reg)
		any = true
	}
	if !any {
		return nil
	}
	return merged
}

// Size returns the machine count.
func (cl *Cluster) Size() int { return len(cl.machines) }

// Machine returns machine i.
func (cl *Cluster) Machine(i int) *Machine { return cl.machines[i] }

// Engine returns the shared engine.
func (cl *Cluster) Engine() *sim.Engine { return cl.engine }

// Run executes fn as the cluster coordinator process and drives the engine
// until everything spawned completes, returning the elapsed virtual time.
func (cl *Cluster) Run(name string, fn func(p *sim.Proc) error) (sim.Time, error) {
	start := cl.engine.Now()
	var err error
	cl.engine.Spawn(name, func(p *sim.Proc) { err = fn(p) })
	if derr := cl.engine.Run(); derr != nil {
		return 0, derr
	}
	if err != nil {
		return 0, err
	}
	return cl.engine.Now() - start, nil
}

// send charges a timed message of n bytes from machine src to machine dst:
// both NIC ports are held for the transfer duration.
func (cl *Cluster) send(p *sim.Proc, src, dst int, n int64) {
	if src == dst || n <= 0 {
		return
	}
	t := cl.fabric.Latency + sim.TransferTime(n, cl.fabric.BW)
	a, b := cl.fabric.ports[src], cl.fabric.ports[dst]
	// Deterministic lock order by machine ID avoids port deadlocks.
	first, second := a, b
	if dst < src {
		first, second = b, a
	}
	first.Acquire(p)
	second.Acquire(p)
	p.Sleep(t)
	second.Release()
	first.Release()
}

// TransferFile moves bytes between two machines' storage buffers: a timed
// read on the source machine's root device, the network message, and a
// timed write on the destination's, with the functional payload following
// when the runtimes are not phantom. Both buffers must be file-backed.
func (cl *Cluster) TransferFile(p *sim.Proc, dst *core.Buffer, dstMachine int,
	src *core.Buffer, srcMachine int, dstOff, srcOff, n int64) error {
	if n == 0 {
		return nil
	}
	if src.File() == nil || dst.File() == nil {
		return fmt.Errorf("cluster: TransferFile needs storage buffers on both machines")
	}
	srcRT := cl.machines[srcMachine].RT
	var payload []byte
	if !srcRT.Phantom() {
		payload = make([]byte, n)
		if err := src.File().Peek(payload, srcOff); err != nil {
			return err
		}
	}
	if err := src.File().Charge(p, device.Read, srcOff, n); err != nil {
		return err
	}
	cl.send(p, srcMachine, dstMachine, n)
	if err := dst.File().Charge(p, device.Write, dstOff, n); err != nil {
		return err
	}
	if payload != nil && !cl.machines[dstMachine].RT.Phantom() {
		if err := dst.File().Preload(payload, dstOff); err != nil {
			return err
		}
	}
	return nil
}

// Scatter distributes equal slices of a source buffer on machine root to
// each machine's destination buffer: slice i (size sliceBytes at offset
// i*sliceBytes) goes to machine i. Transfers proceed concurrently, bounded
// by the fabric ports.
func (cl *Cluster) Scatter(p *sim.Proc, rootMachine int, src *core.Buffer,
	dsts []*core.Buffer, sliceBytes int64) error {
	if len(dsts) != cl.Size() {
		return fmt.Errorf("cluster: scatter with %d destinations for %d machines",
			len(dsts), cl.Size())
	}
	wg := sim.NewWaitGroup(cl.engine)
	var firstErr error
	for i := range dsts {
		i := i
		wg.Add(1)
		cl.engine.Spawn(fmt.Sprintf("scatter-%d", i), func(sp *sim.Proc) {
			defer wg.Done()
			err := cl.TransferFile(sp, dsts[i], i, src, rootMachine,
				0, int64(i)*sliceBytes, sliceBytes)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	wg.Wait(p)
	return firstErr
}

// Broadcast copies a whole buffer from the root machine to every other
// machine's destination buffer.
func (cl *Cluster) Broadcast(p *sim.Proc, rootMachine int, src *core.Buffer,
	dsts []*core.Buffer) error {
	if len(dsts) != cl.Size() {
		return fmt.Errorf("cluster: broadcast with %d destinations for %d machines",
			len(dsts), cl.Size())
	}
	wg := sim.NewWaitGroup(cl.engine)
	var firstErr error
	for i := range dsts {
		i := i
		if i == rootMachine {
			continue
		}
		wg.Add(1)
		cl.engine.Spawn(fmt.Sprintf("bcast-%d", i), func(sp *sim.Proc) {
			defer wg.Done()
			err := cl.TransferFile(sp, dsts[i], i, src, rootMachine, 0, 0, src.Size())
			if err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	wg.Wait(p)
	return firstErr
}

// Gather collects each machine's source buffer into slice i of the root
// machine's destination buffer.
func (cl *Cluster) Gather(p *sim.Proc, rootMachine int, srcs []*core.Buffer,
	dst *core.Buffer, sliceBytes int64) error {
	if len(srcs) != cl.Size() {
		return fmt.Errorf("cluster: gather with %d sources for %d machines",
			len(srcs), cl.Size())
	}
	wg := sim.NewWaitGroup(cl.engine)
	var firstErr error
	for i := range srcs {
		i := i
		wg.Add(1)
		cl.engine.Spawn(fmt.Sprintf("gather-%d", i), func(sp *sim.Proc) {
			defer wg.Done()
			err := cl.TransferFile(sp, dst, rootMachine, srcs[i], i,
				int64(i)*sliceBytes, 0, sliceBytes)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	wg.Wait(p)
	return firstErr
}
