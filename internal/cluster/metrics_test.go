package cluster

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// newMetricsCluster builds k APU machines with metrics on and runs a
// distributed GEMM so every machine accumulates real counters.
func newMetricsCluster(t *testing.T, k int) *Cluster {
	t.Helper()
	e := sim.NewEngine()
	opts := core.DefaultOptions()
	opts.Phantom = true
	opts.Metrics = obs.NewRegistry()
	cl, err := New(e, k, DefaultFabric(), opts, func(e *sim.Engine, i int) *topo.Tree {
		return topo.APU(e, topo.APUConfig{Storage: topo.SSD,
			StorageMiB: 8192, DRAMMiB: 512})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DistributedGEMM(cl, GEMMConfig{N: 1920, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestClusterPerMachineRegistries checks each machine carries its own
// registry with its own totals, and that the caller's template registry is
// not aliased into any machine.
func TestClusterPerMachineRegistries(t *testing.T) {
	cl := newMetricsCluster(t, 2)
	r0, r1 := cl.Machine(0).RT.Metrics(), cl.Machine(1).RT.Metrics()
	if r0 == nil || r1 == nil {
		t.Fatal("machines built without registries")
	}
	if r0 == r1 {
		t.Fatal("machines share one registry")
	}
	if r0.Flatten()[`northup_busy_ns_total{cat="gpu"}`] <= 0 {
		t.Fatal("machine 0 accumulated no GPU busy time")
	}
}

// TestClusterMergedMetricsRollsUp checks the cluster-wide registry holds
// the sum of the machines' counters and reconciles with each runtime's
// Breakdown.
func TestClusterMergedMetricsRollsUp(t *testing.T) {
	cl := newMetricsCluster(t, 3)
	merged := cl.MergedMetrics()
	if merged == nil {
		t.Fatal("MergedMetrics returned nil on a metrics-enabled cluster")
	}
	flat := merged.Flatten()
	var wantGPU int64
	for i := 0; i < cl.Size(); i++ {
		m := cl.Machine(i).RT
		wantGPU += int64(m.Metrics().Flatten()[`northup_busy_ns_total{cat="gpu"}`])
	}
	if got := int64(flat[`northup_busy_ns_total{cat="gpu"}`]); got != wantGPU {
		t.Fatalf("merged GPU busy %d, want sum of machines %d", got, wantGPU)
	}
}

// TestClusterMergeOrderIndependent is the rollup-associativity satellite:
// merging the machines' registries in any order yields byte-identical
// Prometheus exports.
func TestClusterMergeOrderIndependent(t *testing.T) {
	cl := newMetricsCluster(t, 3)
	exportOf := func(order []int) string {
		merged := obs.NewRegistry()
		for _, i := range order {
			merged.Merge(cl.Machine(i).RT.Metrics())
		}
		var buf bytes.Buffer
		if err := merged.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	ref := exportOf([]int{0, 1, 2})
	for _, order := range [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		if got := exportOf(order); got != ref {
			t.Fatalf("merge order %v changed the cluster export", order)
		}
	}
	// And MergedMetrics (machine order) agrees with the reference.
	var buf bytes.Buffer
	if err := cl.MergedMetrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != ref {
		t.Fatal("MergedMetrics disagrees with a manual in-order merge")
	}
}

// TestClusterWithoutMetrics checks the nil path: no registry in opts means
// no per-machine registries and a nil rollup.
func TestClusterWithoutMetrics(t *testing.T) {
	cl := newCluster(t, 2, true, 16, 2)
	if cl.Machine(0).RT.Metrics() != nil {
		t.Fatal("registry appeared without opts.Metrics")
	}
	if cl.MergedMetrics() != nil {
		t.Fatal("MergedMetrics non-nil without opts.Metrics")
	}
}
