package hotspot

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// newMeteredStealRuntime is newStealRuntime with a metrics registry, so
// the depth gauge the scheduler publishes can be inspected after the run.
func newMeteredStealRuntime() (*core.Runtime, *obs.Registry) {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64,
		DRAMMiB: 16, WithCPU: true})
	opts := core.DefaultOptions()
	opts.Metrics = obs.NewRegistry()
	return core.NewRuntime(e, tree, opts), opts.Metrics
}

// TestStealSchedulerCleansUpNodeState is the regression test for the
// scheduler's shared-node-state bugs: RunSteal used to overwrite
// Node.Queues with its own monitors (clobbering any concurrent job's
// registration and leaking stale monitors after the run) and to publish
// queue depth with an absolute gauge write (last-writer-wins across
// concurrent schedulers). After the fix, a finished run must leave the
// node's queue list empty and the depth gauge withdrawn to zero.
func TestStealSchedulerCleansUpNodeState(t *testing.T) {
	rt, reg := newMeteredStealRuntime()
	cfg := StealConfig{M: 64, ChunkDim: 64, Seed: 5, Iters: 4, GPUQueues: 2, Mode: CPUGPU}
	if _, err := RunSteal(rt, cfg); err != nil {
		t.Fatal(err)
	}
	for _, n := range rt.Tree().Nodes() {
		if len(n.Queues) != 0 {
			t.Fatalf("%v still has %d queue monitors after the run", n, len(n.Queues))
		}
	}
	for name, v := range reg.Flatten() {
		if len(name) >= len("northup_queue_depth") &&
			name[:len("northup_queue_depth")] == "northup_queue_depth" && v != 0 {
			t.Fatalf("depth gauge %s = %v after the run, want 0", name, v)
		}
	}
}

// TestStealSchedulerRepeatedRunsDoNotAccumulate reruns the scheduler on
// one runtime: with AttachQueues/detach pairing, the second run must see
// (and leave) a clean node, not a growing monitor list — the leak the old
// absolute assignment hid.
func TestStealSchedulerRepeatedRunsDoNotAccumulate(t *testing.T) {
	rt, _ := newMeteredStealRuntime()
	cfg := StealConfig{M: 64, ChunkDim: 64, Seed: 5, Iters: 2, GPUQueues: 2, Mode: CPUGPU}
	root := rt.Tree().Root()
	for run := 0; run < 3; run++ {
		if _, err := RunSteal(rt, cfg); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for _, n := range rt.Tree().Nodes() {
			if len(n.Queues) != 0 {
				t.Fatalf("run %d: %v accumulated %d monitors", run, n, len(n.Queues))
			}
		}
		// Clear this run's input files so the next run starts fresh on the
		// same shared tree (what distinguishes reuse from a new runtime).
		for _, name := range root.Store.List() {
			if err := root.Store.Remove(name); err != nil {
				t.Fatalf("run %d: remove %s: %v", run, name, err)
			}
		}
	}
}
