package repro

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/apps/gemm"
	"repro/internal/apps/hotspot"
	"repro/internal/apps/oocsort"
	"repro/internal/apps/spmv"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// widthRun is everything a functional run shows: a digest of its output,
// its elapsed virtual time and breakdown, and a digest of its ordered
// event trace.
type widthRun struct {
	out     uint64
	elapsed sim.Time
	bd      trace.Breakdown
	trace   uint64
}

// widthCase runs one functional app on a fresh tree.
type widthCase struct {
	name string
	run  func(t *testing.T) widthRun
}

// tracedRuntime builds a functional runtime on tree with an event
// recorder.
func tracedRuntime(e *sim.Engine, tree *topo.Tree) (*core.Runtime, *trace.Recorder) {
	rec := trace.NewRecorder(trace.Options{})
	opts := core.DefaultOptions()
	opts.Trace = rec
	return core.NewRuntime(e, tree, opts), rec
}

// eventsDigest is FNV-1a over every field of the events, in order.
func eventsDigest(evs []trace.Event) uint64 {
	h := fnv.New64a()
	for _, ev := range evs {
		fmt.Fprintf(h, "%d|%d|%s|%d|%s|%d|%d|%d|%d\n", ev.Kind, ev.Cat, ev.Name,
			ev.Lane.Node, ev.Lane.Track, ev.Start, ev.Dur, ev.Value, ev.Seq)
	}
	return h.Sum64()
}

// appRun folds an app's output, stats and recorded events into a
// widthRun.
func appRun(out []float32, st core.RunStats, rec *trace.Recorder) widthRun {
	h := fnv.New64a()
	h.Write(f32bytes(out))
	return widthRun{out: h.Sum64(), elapsed: st.Elapsed, bd: st.Breakdown,
		trace: eventsDigest(rec.Events())}
}

// longRowMatrix is a square sparse matrix with two adjacent rows longer
// than VectorLongThreshold, so CSR-VectorL splits each over several
// workgroups, among short random rows.
func longRowMatrix(n int, seed int64) *workload.CSR {
	rng := rand.New(rand.NewSource(seed))
	m := &workload.CSR{NRows: n, NCols: n, RowPtr: make([]int32, 1, n+1)}
	for r := 0; r < n; r++ {
		var cols []int32
		switch r {
		case 100, 101:
			for c := 0; c < spmv.VectorLongThreshold+1000*(r-99); c++ {
				cols = append(cols, int32(c))
			}
		default:
			for k := rng.Intn(16); k > 0; k-- {
				cols = append(cols, int32(rng.Intn(n)))
			}
			slices.Sort(cols)
			cols = slices.Compact(cols)
		}
		for _, c := range cols {
			m.ColIdx = append(m.ColIdx, c)
			m.Val = append(m.Val, rng.Float32()*2-1)
		}
		m.RowPtr = append(m.RowPtr, int32(len(m.ColIdx)))
	}
	return m
}

// serveScenario is a small functional two-tenant mix of all four serve
// workloads.
const serveScenario = `
name: width
seed: 3
workers: 2
topology:
  preset: apu-ssd
  storage_mib: 256
  dram_mib: 64
tenants:
  - name: a
    rate: 200/s
    quota_mib: 16
    max_jobs: 6
    mix:
      - workload: gemm
        n: 128
      - workload: sort
        n: 5000
  - name: b
    rate: 100/s
    weight: 2
    quota_mib: 8
    max_jobs: 5
    mix:
      - workload: spmv
        n: 2000
      - workload: hotspot
        n: 32
        iters: 2
`

func widthCases() []widthCase {
	return []widthCase{
		{"gemm/apu", func(t *testing.T) widthRun {
			e := sim.NewEngine()
			tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 1})
			rt, rec := tracedRuntime(e, tree)
			res, err := gemm.RunNorthup(rt, gemm.Config{N: 256, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			return appRun(res.C, res.Stats, rec)
		}},
		{"gemm/discrete", func(t *testing.T) widthRun {
			// GPU memory too small for a shard's product: the k-panels
			// accumulate into C.
			e := sim.NewEngine()
			tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
				StorageMiB: 64, DRAMMiB: 4, GPUMemMiB: 1})
			rt, rec := tracedRuntime(e, tree)
			res, err := gemm.RunNorthup(rt, gemm.Config{N: 256, Seed: 13})
			if err != nil {
				t.Fatal(err)
			}
			return appRun(res.C, res.Stats, rec)
		}},
		{"hotspot/northup", func(t *testing.T) widthRun {
			e := sim.NewEngine()
			tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 2})
			rt, rec := tracedRuntime(e, tree)
			res, err := hotspot.RunNorthup(rt,
				hotspot.Config{N: 256, Seed: 5, ChunkDim: 64, Iters: 3})
			if err != nil {
				t.Fatal(err)
			}
			return appRun(res.Temp, res.Stats, rec)
		}},
		{"hotspot/multibranch", func(t *testing.T) widthRun {
			e := sim.NewEngine()
			tree := topo.MultiBranch(e, topo.MultiBranchConfig{Storage: topo.SSD, StorageMiB: 512,
				BranchDRAMMiB: []int64{8, 8}, FastBranches: []bool{false, true}})
			rt, rec := tracedRuntime(e, tree)
			res, err := hotspot.RunNorthup(rt, hotspot.Config{
				N: 128, Seed: 8, ChunkDim: 32, Iters: 3, Policy: hotspot.DynamicQueue})
			if err != nil {
				t.Fatal(err)
			}
			return appRun(res.Temp, res.Stats, rec)
		}},
		{"spmv/long-rows", func(t *testing.T) widthRun {
			e := sim.NewEngine()
			tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64,
				DRAMMiB: 8, WithCPU: true})
			rt, rec := tracedRuntime(e, tree)
			res, err := spmv.RunNorthup(rt,
				spmv.Config{Matrix: longRowMatrix(12000, 4), Seed: 4, Chunks: 2})
			if err != nil {
				t.Fatal(err)
			}
			return appRun(res.Y, res.Stats, rec)
		}},
		{"oocsort", func(t *testing.T) widthRun {
			e := sim.NewEngine()
			tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64,
				DRAMMiB: 8, WithCPU: true})
			rt, rec := tracedRuntime(e, tree)
			res, err := oocsort.Run(rt,
				oocsort.Config{N: 50_000, Seed: 2, ChunkKeys: 8_000, MergeBlockKeys: 1024})
			if err != nil {
				t.Fatal(err)
			}
			return appRun(res.Sorted, res.Stats, rec)
		}},
		{"serve", func(t *testing.T) widthRun {
			scn, err := serve.ParseScenario([]byte(serveScenario))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := serve.New(scn, serve.RunOptions{Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			if err := rep.WriteJSON(h); err != nil {
				t.Fatal(err)
			}
			if err := eng.MergedRegistry().WriteJSON(h, nil); err != nil {
				t.Fatal(err)
			}
			for _, r := range eng.Records() {
				fmt.Fprintf(h, "%+v\n", r)
			}
			return widthRun{out: h.Sum64(), elapsed: eng.Now(),
				bd: *eng.Runtime().Breakdown(), trace: eventsDigest(eng.TraceEvents())}
		}},
	}
}

// TestLaunchWidthChangesNothing runs every app whose kernels compute at
// launch widths (GOMAXPROCS) 1 and 4: the output, elapsed time, breakdown
// and ordered trace must be bit-identical.
func TestLaunchWidthChangesNothing(t *testing.T) {
	for _, tc := range widthCases() {
		t.Run(tc.name, func(t *testing.T) {
			var runs [2]widthRun
			for i, width := range []int{1, 4} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
					runs[i] = tc.run(t)
				}()
			}
			if runs[0] != runs[1] {
				t.Errorf("width 1: %+v\nwidth 4: %+v", runs[0], runs[1])
			}
		})
	}
}
