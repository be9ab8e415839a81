package repro

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/apps/gemm"
	"repro/internal/apps/hotspot"
	"repro/internal/apps/spmv"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// treeScheduleRun is what one app run shows: its output, stats and the
// chunks each staging branch ran.
type treeScheduleRun struct {
	out      []float32
	stats    core.RunStats
	byBranch []int
}

// TestTreePicksScheduleGolden runs each app's RunNorthup where the tree,
// not the caller, picks the schedule: the in-memory baseline on a
// memory-rooted tree, and HotSpot's chunks over a slow and a fast staging
// branch under each branch policy. Elapsed time, breakdown, the trace's
// FNV, an output digest and the per-branch chunk counts must match
// constants recorded from the separate in-memory and multi-branch entry
// points this path replaced, so folding them moved no number.
func TestTreePicksScheduleGolden(t *testing.T) {
	inMemory := func(e *sim.Engine) *topo.Tree { return topo.InMemory(e, 64) }
	slowFast := func(e *sim.Engine) *topo.Tree {
		return topo.MultiBranch(e, topo.MultiBranchConfig{Storage: topo.SSD, StorageMiB: 512,
			BranchDRAMMiB: []int64{8, 8}, FastBranches: []bool{false, true}})
	}
	branches := func(policy hotspot.BranchPolicy) func(rt *core.Runtime) (treeScheduleRun, error) {
		return func(rt *core.Runtime) (treeScheduleRun, error) {
			res, err := hotspot.RunNorthup(rt, hotspot.Config{N: 256, Seed: 8, ChunkDim: 64, Iters: 3, Policy: policy})
			if err != nil {
				return treeScheduleRun{}, err
			}
			return treeScheduleRun{res.Temp, res.Stats, res.ChunksByBranch}, nil
		}
	}
	for _, tc := range []struct {
		name string
		tree func(e *sim.Engine) *topo.Tree
		run  func(rt *core.Runtime) (treeScheduleRun, error)
		want string
	}{
		{"gemm/inmemory", inMemory, func(rt *core.Runtime) (treeScheduleRun, error) {
			res, err := gemm.RunNorthup(rt, gemm.Config{N: 256, Seed: 1})
			if err != nil {
				return treeScheduleRun{}, err
			}
			return treeScheduleRun{out: res.C, stats: res.Stats}, nil
		}, "elapsed=150646 busy=[0 140646 0 0 6000 0 0 4000] total=150646 events=8 trace=c265783bc6a206d1 out=8560111950e67a6d chunks=[]"},
		{"hotspot/inmemory", inMemory, func(rt *core.Runtime) (treeScheduleRun, error) {
			res, err := hotspot.RunNorthup(rt, hotspot.Config{N: 256, Seed: 2, Iters: 4, Passes: 2})
			if err != nil {
				return treeScheduleRun{}, err
			}
			return treeScheduleRun{res.Temp, res.Stats, res.ChunksByBranch}, nil
		}, "elapsed=507752 busy=[0 490752 0 0 6000 0 0 11000] total=507752 events=22 trace=e5b3572e197fc663 out=c218e3398eed584a chunks=[]"},
		{"spmv/inmemory", inMemory, func(rt *core.Runtime) (treeScheduleRun, error) {
			res, err := spmv.RunNorthup(rt, spmv.Config{N: 16384, Kind: workload.SparseUniform, Seed: 3})
			if err != nil {
				return treeScheduleRun{}, err
			}
			return treeScheduleRun{out: res.Y, stats: res.Stats}, nil
		}, "elapsed=1021148 busy=[262144 743004 0 0 10000 0 0 6000] total=1021148 events=13 trace=77ce3d4dbe4d8d80 out=a9cabff0f9c15294 chunks=[]"},
		{"hotspot/multibranch-static", slowFast, branches(hotspot.StaticPartition),
			"elapsed=7600286 busy=[0 1152432 0 0 176000 165888 22581738 398000] total=7600286 events=702 trace=5e2b89bb6d870947 out=ae46a617111a5564 chunks=[8 8]"},
		{"hotspot/multibranch-dynamic", slowFast, branches(hotspot.DynamicQueue),
			"elapsed=7613198 busy=[0 1152432 0 0 176000 165888 22489120 398000] total=7613198 events=702 trace=62360ac081d26776 out=ae46a617111a5564 chunks=[8 8]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			rt, rec := tracedRuntime(e, tc.tree(e))
			r, err := tc.run(rt)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			fmt.Fprintf(&sb, "elapsed=%d busy=[", r.stats.Elapsed)
			for i, c := range trace.Categories {
				if i > 0 {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "%d", r.stats.Breakdown.Busy(c))
			}
			h := fnv.New64a()
			h.Write(f32bytes(r.out))
			evs := rec.Events()
			fmt.Fprintf(&sb, "] total=%d events=%d trace=%016x out=%016x chunks=%v",
				r.stats.Breakdown.Total(), len(evs), eventsDigest(evs), h.Sum64(), r.byBranch)
			if got := sb.String(); got != tc.want {
				t.Errorf("\ngot  %s\nwant %s", got, tc.want)
			}
		})
	}
}
