package taskgraph_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps/gemm"
	"repro/internal/apps/spmv"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/taskgraph"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The placement golden pins every observable of affinity placement — the
// ordered placements with the bytes each found resident, the dispatch
// statistics, the makespan, the cache counters and the recorded event
// stream in order — across the apps' task graphs and synthetic grids that
// make the staging cache abort fills, invalidate entries and outlive a
// released source. The constants were captured from the build that
// rescored every ready task against the cache on every pick, so they hold
// any incremental scorer to that build's exact choices.

// placementLog subscribes to the observation stream and hashes each
// placement as (task id, saved bytes): the "place" instant carries the
// task, and the saved-bytes counter has already counted the decision when
// the instant is emitted.
type placementLog struct {
	saved *obs.Counter
	last  int64
	n     int
	h     hash.Hash64
}

func (l *placementLog) Span(*sim.Proc, trace.Lane, trace.Category, string, sim.Time, sim.Time, int64) {
}
func (l *placementLog) Counter(trace.Lane, string, sim.Time, int64) {}
func (l *placementLog) Instant(_ trace.Lane, name string, _ sim.Time, id int64) {
	if name != "place" {
		return
	}
	s := l.saved.Value()
	fmt.Fprintf(l.h, "%d|%d\n", id, s-l.last)
	l.last = s
	l.n++
}

// goldenEnv is one case's runtime configuration.
type goldenEnv struct {
	cacheBytes int64         // 0: staging cache off
	prefetch   bool          // lookahead prefetcher on
	faults     *fault.Config // nil: no injector
	noRetry    bool          // fail a faulty transfer at once
}

// newGoldenRuntime builds the SSD APU tree in phantom mode with a trace
// recorder and a metrics registry attached.
func newGoldenRuntime(env goldenEnv) (*core.Runtime, *trace.Recorder, *obs.Registry) {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 2, WithCPU: true})
	rec := trace.NewRecorder(trace.Options{})
	reg := obs.NewRegistry()
	opts := core.DefaultOptions()
	opts.Phantom = true
	opts.Trace = rec
	opts.Metrics = reg
	if env.cacheBytes > 0 {
		opts.Cache = core.CacheOptions{Enabled: true, CapacityBytes: env.cacheBytes, Prefetch: env.prefetch}
	}
	if env.faults != nil {
		opts.Faults = fault.New(e, *env.faults)
	}
	if env.noRetry {
		// A zero policy means the default; any other with no retries
		// surfaces the first failure.
		opts.Retry = core.RetryPolicy{BaseBackoff: sim.Microseconds(1)}
	}
	return core.NewRuntime(e, tree, opts), rec, reg
}

// goldenRun executes one graph on rt with opts and returns its makespan
// and dispatch statistics.
type goldenRun func(rt *core.Runtime, opts taskgraph.Options) (sim.Time, *taskgraph.Stats, error)

const (
	goldenGemmN     = 256
	goldenGemmShard = 32
	goldenSpmvRows  = 8192
	goldenSpmvNNZ   = 16
)

func gemmRun(rt *core.Runtime, opts taskgraph.Options) (sim.Time, *taskgraph.Stats, error) {
	res, st, err := gemm.RunTasks(rt, gemm.Config{N: goldenGemmN, Seed: 3, ShardDim: goldenGemmShard}, opts)
	if err != nil {
		return 0, st, err
	}
	return res.Stats.Elapsed, st, nil
}

func spmvRun(rt *core.Runtime, opts taskgraph.Options) (sim.Time, *taskgraph.Stats, error) {
	res, st, err := spmv.RunTasks(rt, spmv.Config{N: goldenSpmvRows, AvgNNZ: goldenSpmvNNZ,
		Kind: workload.SparseUniform, Seed: 5, Iters: 3, Chunks: 8}, opts)
	if err != nil {
		return 0, st, err
	}
	return res.Stats.Elapsed, st, nil
}

// gridOpts shapes a synthetic GEMM-like grid: task (i, j) reads row shard
// i of source a and column shard j of source b from storage through the
// staging cache, computes, and writes its own block of an output buffer.
type gridOpts struct {
	dim        int   // grid edge
	shardBytes int64 // bytes per shard
	prefetch   bool  // each task prefetches the next row shard of a
	// tolerate makes bodies shrug off fetch errors (injected faults with
	// no retry, a released source), so the run continues past them.
	tolerate bool
	// poke, when set, ends every task body; for the tasks it picks it
	// makes an undeclared write or releases a source.
	poke func(c *core.Ctx, g *grid, i, j int) error
}

// grid is a built synthetic grid's shared state.
type grid struct {
	a, b, out *core.Buffer
	dram      *topo.Node
}

func gridRun(o gridOpts) goldenRun {
	return func(rt *core.Runtime, opts taskgraph.Options) (sim.Time, *taskgraph.Stats, error) {
		root := rt.Tree().Root()
		g := &grid{dram: root.Children[0]}
		size := int64(o.dim) * o.shardBytes
		var err error
		if g.a, err = rt.CreateInput(root, "grid-a", size, nil); err != nil {
			return 0, nil, err
		}
		if g.b, err = rt.CreateInput(root, "grid-b", size, nil); err != nil {
			return 0, nil, err
		}
		const block = 4096
		if g.out, err = rt.CreateInput(root, "grid-out", int64(o.dim*o.dim)*block, nil); err != nil {
			return 0, nil, err
		}
		tg := taskgraph.New()
		for i := 0; i < o.dim; i++ {
			for j := 0; j < o.dim; j++ {
				i, j := i, j
				aOff, bOff := int64(i)*o.shardBytes, int64(j)*o.shardBytes
				outOff := int64(i*o.dim+j) * block
				tg.Add(&taskgraph.Task{
					Name: fmt.Sprintf("grid[%d,%d]", i, j),
					Kind: "grid",
					Reads: []taskgraph.Extent{
						{Buf: g.a, Off: aOff, Len: o.shardBytes},
						{Buf: g.b, Off: bOff, Len: o.shardBytes},
					},
					Writes: []taskgraph.Extent{{Buf: g.out, Off: outOff, Len: block}},
					Cost:   float64(o.shardBytes),
					Run: func(c *core.Ctx) error {
						if o.prefetch && i+1 < o.dim {
							c.Prefetch(g.dram, g.a, aOff+o.shardBytes, o.shardBytes)
						}
						err := gridBody(c, g, aOff, bOff, o.shardBytes)
						if err != nil && !o.tolerate {
							return err
						}
						if o.poke != nil {
							return o.poke(c, g, i, j)
						}
						return nil
					},
				})
			}
		}
		var st *taskgraph.Stats
		stats, err := rt.Run("grid", func(c *core.Ctx) error {
			opts.Node = g.dram
			var gerr error
			st, gerr = tg.Run(c, opts)
			return gerr
		})
		return stats.Elapsed, st, err
	}
}

// gridBody stages both shards through the cache, computes on the CPU and
// lets go of them.
func gridBody(c *core.Ctx, g *grid, aOff, bOff, n int64) error {
	as, err := c.MoveDataDownCached(g.dram, g.a, aOff, n)
	if err != nil {
		return err
	}
	defer c.Unpin(as)
	bs, err := c.MoveDataDownCached(g.dram, g.b, bOff, n)
	if err != nil {
		return err
	}
	defer c.Unpin(bs)
	return c.Descend(g.dram, func(dc *core.Ctx) error {
		_, err := dc.RunCPU(float64(n), float64(2*n), func() {})
		return err
	})
}

// goldenCase is one pinned placement scenario.
type goldenCase struct {
	name    string
	env     goldenEnv
	run     goldenRun
	workers int
	profile string // "", "cold" or "warm"
}

// warmProfile returns a profile that has already watched one cold run of
// the same graph on the same configuration, the way a user warm-starts a
// repeat run from an exported profile.
func warmProfile(t *testing.T, tc goldenCase) *sched.ProfileScheduler {
	t.Helper()
	prof := sched.NewProfileScheduler()
	rt, _, _ := newGoldenRuntime(tc.env)
	if _, _, err := tc.run(rt, taskgraph.Options{Workers: tc.workers, Affinity: true, Profile: prof}); err != nil {
		t.Fatalf("%s: warm-up run: %v", tc.name, err)
	}
	data, err := prof.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	warm := sched.NewProfileScheduler()
	if err := warm.ImportJSON(data); err != nil {
		t.Fatal(err)
	}
	return warm
}

func runGoldenPlacement(t *testing.T, tc goldenCase) string {
	t.Helper()
	opts := taskgraph.Options{Workers: tc.workers, Affinity: true}
	switch tc.profile {
	case "cold":
		opts.Profile = sched.NewProfileScheduler()
	case "warm":
		opts.Profile = warmProfile(t, tc)
	}
	rt, rec, reg := newGoldenRuntime(tc.env)
	dram := rt.Tree().Root().Children[0]
	log := &placementLog{h: fnv.New64a(), saved: reg.Counter("northup_sched_moved_bytes_saved_total",
		"", obs.L("node", strconv.Itoa(dram.ID)))}
	defer rt.Subscribe(log)()
	elapsed, st, err := tc.run(rt, opts)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	cs := rt.CacheStats()
	var sb strings.Builder
	fmt.Fprintf(&sb, "elapsed=%d stats=%d/%d/%d/%d/%d", elapsed,
		st.Tasks, st.Pops, st.Steals, st.AffinityPicks, st.SavedBytes)
	fmt.Fprintf(&sb, " cache=%d/%d/%d/%d/%d/%d/%d/%d/%d/%d", cs.Hits, cs.Misses, cs.Evictions,
		cs.Prefetches, cs.PrefetchHits, cs.Bypasses, cs.Invalidations, cs.PrefetchErrors,
		cs.HitBytes, cs.MissBytes)
	fmt.Fprintf(&sb, " places=%d/%016x", log.n, log.h.Sum64())
	h := fnv.New64a()
	evs := rec.Events()
	for _, ev := range evs {
		fmt.Fprintf(h, "%d|%d|%s|%d|%s|%d|%d|%d|%d\n", ev.Kind, ev.Cat, ev.Name,
			ev.Lane.Node, ev.Lane.Track, ev.Start, ev.Dur, ev.Value, ev.Seq)
	}
	fmt.Fprintf(&sb, " events=%d trace=%016x", len(evs), h.Sum64())
	return sb.String()
}

// goldenPlacementCases builds the table: GEMM and SpMV task graphs for
// every worker count, cache size and profile, then the synthetic grids.
func goldenPlacementCases() []goldenCase {
	gemmShard := int64(goldenGemmShard) * goldenGemmN * 4
	// SpMV plans 8 shards of about 1024 rows: 64 KiB of col_id and of data
	// each, plus 4 KiB of row_ptr.
	spmvShard := int64(goldenSpmvRows) * goldenSpmvNNZ * 8 / 8
	apps := []struct {
		name string
		run  goldenRun
		// set holds one full shard set (half the working set); small
		// cannot hold two shards at once.
		set, small int64
	}{
		{"gemm", gemmRun, goldenGemmN * goldenGemmN * 4, 2*gemmShard - 1},
		{"spmv", spmvRun, goldenSpmvRows * goldenSpmvNNZ * 8 / 2, spmvShard * 3 / 2},
	}
	var cases []goldenCase
	for _, app := range apps {
		for _, w := range []int{1, 2, 4} {
			for _, cache := range []struct {
				name  string
				bytes int64
			}{{"nocache", 0}, {"set", app.set}, {"small", app.small}} {
				for _, prof := range []string{"", "cold", "warm"} {
					name := fmt.Sprintf("%s/w%d/%s", app.name, w, cache.name)
					if prof != "" {
						name += "/" + prof
					}
					cases = append(cases, goldenCase{name: name, run: app.run, workers: w,
						profile: prof, env: goldenEnv{cacheBytes: cache.bytes}})
				}
			}
		}
	}

	const shard = 64 << 10
	// Transfers fail a third of the time with no retry: demand fills and
	// prefetch fills abort, and bodies carry on without their shards.
	faulty := goldenEnv{cacheBytes: 6 * shard, prefetch: true, noRetry: true,
		faults: &fault.Config{Seed: 17, TransferFailRate: 0.3, TransferDelayRate: 0.2}}
	cases = append(cases,
		goldenCase{name: "grid/abort", env: faulty, workers: 3,
			run: gridRun(gridOpts{dim: 6, shardBytes: shard, prefetch: true, tolerate: true})},
		goldenCase{name: "grid/abort/cold", env: faulty, workers: 2, profile: "cold",
			run: gridRun(gridOpts{dim: 6, shardBytes: shard, prefetch: true, tolerate: true})},
		// Every fourth task overwrites a row shard of a it never declared
		// (the next row's, often resident): the write invalidates it.
		goldenCase{name: "grid/invalidate", env: goldenEnv{cacheBytes: 8 * shard}, workers: 3,
			run: gridRun(gridOpts{dim: 6, shardBytes: shard,
				poke: func(c *core.Ctx, g *grid, i, j int) error {
					if (i*6+j)%4 != 3 {
						return nil
					}
					tmp, err := c.AllocAt(g.dram, shard)
					if err != nil {
						return err
					}
					defer c.Release(tmp)
					return c.MoveData(g.a, tmp, int64((i+1)%6)*shard, 0, shard)
				}})},
		// Task [1,2] releases source b while its column shards sit in the
		// cache: every task still reading b must price it as missing.
		goldenCase{name: "grid/release", env: goldenEnv{cacheBytes: 8 * shard}, workers: 2,
			run: gridRun(gridOpts{dim: 6, shardBytes: shard, tolerate: true,
				poke: func(c *core.Ctx, g *grid, i, j int) error {
					if i != 1 || j != 2 {
						return nil
					}
					if err := c.Release(g.b); err != nil {
						return fmt.Errorf("release of b: %w", err)
					}
					return nil
				}})},
	)
	return cases
}

// TestAffinityPlacementGolden pins affinity placement's choices and
// everything downstream of them; a change to how placement prices tasks
// that fails it moved a schedule.
func TestAffinityPlacementGolden(t *testing.T) {
	want := goldenPlacementWant
	for _, tc := range goldenPlacementCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := runGoldenPlacement(t, tc)
			if w, ok := want[tc.name]; !ok || got != w {
				t.Errorf("%s:\n got %s\nwant %s", tc.name, got, w)
			}
		})
	}
}

// goldenPlacementWant holds each case's pinned observables.
var goldenPlacementWant = map[string]string{
	"gemm/w1/nocache":      "elapsed=18736616 stats=64/0/0/64/0 cache=0/0/0/0/0/0/0/0/0/0 places=64/a5891d21724014c5 events=1409 trace=42f22f628a3b97b6",
	"gemm/w1/nocache/cold": "elapsed=18736616 stats=64/0/0/64/0 cache=0/0/0/0/0/0/0/0/0/0 places=64/a5891d21724014c5 events=1409 trace=42f22f628a3b97b6",
	"gemm/w1/nocache/warm": "elapsed=18736616 stats=64/0/0/64/0 cache=0/0/0/0/0/0/0/0/0/0 places=64/a5891d21724014c5 events=1409 trace=42f22f628a3b97b6",
	"gemm/w1/set":          "elapsed=10162926 stats=64/0/0/64/3211264 cache=98/30/22/0/0/0/0/0/3211264/983040 places=64/5d854706307b9a64 events=1159 trace=7783a73356391f84",
	"gemm/w1/set/cold":     "elapsed=10162926 stats=64/0/0/64/3211264 cache=98/30/22/0/0/0/0/0/3211264/983040 places=64/5d854706307b9a64 events=1159 trace=7783a73356391f84",
	"gemm/w1/set/warm":     "elapsed=10162926 stats=64/0/0/64/3211264 cache=98/30/22/0/0/0/0/0/3211264/983040 places=64/5d854706307b9a64 events=1159 trace=7783a73356391f84",
	"gemm/w1/small":        "elapsed=13840936 stats=64/0/0/64/1835008 cache=56/72/7/0/0/64/0/0/1835008/2359296 places=64/babf757e1c119495 events=1383 trace=01fbc3c390b5a375",
	"gemm/w1/small/cold":   "elapsed=13840936 stats=64/0/0/64/1835008 cache=56/72/7/0/0/64/0/0/1835008/2359296 places=64/babf757e1c119495 events=1383 trace=01fbc3c390b5a375",
	"gemm/w1/small/warm":   "elapsed=13840936 stats=64/0/0/64/1835008 cache=56/72/7/0/0/64/0/0/1835008/2359296 places=64/babf757e1c119495 events=1383 trace=01fbc3c390b5a375",
	"gemm/w2/nocache":      "elapsed=14962704 stats=64/0/0/64/0 cache=0/0/0/0/0/0/0/0/0/0 places=64/46670cdf3d6cd223 events=1410 trace=306fe6c03341f6b3",
	"gemm/w2/nocache/cold": "elapsed=14962704 stats=64/0/0/64/0 cache=0/0/0/0/0/0/0/0/0/0 places=64/46670cdf3d6cd223 events=1410 trace=306fe6c03341f6b3",
	"gemm/w2/nocache/warm": "elapsed=14962704 stats=64/0/0/64/0 cache=0/0/0/0/0/0/0/0/0/0 places=64/46670cdf3d6cd223 events=1410 trace=306fe6c03341f6b3",
	"gemm/w2/set":          "elapsed=7120770 stats=64/0/0/64/3211264 cache=98/30/22/0/0/0/0/0/3211264/983040 places=64/5abb835cc1d91750 events=1160 trace=f1c3a0cd0405041c",
	"gemm/w2/set/cold":     "elapsed=7120770 stats=64/0/0/64/3211264 cache=98/30/22/0/0/0/0/0/3211264/983040 places=64/5abb835cc1d91750 events=1160 trace=f1c3a0cd0405041c",
	"gemm/w2/set/warm":     "elapsed=7120770 stats=64/0/0/64/3211264 cache=98/30/22/0/0/0/0/0/3211264/983040 places=64/5abb835cc1d91750 events=1160 trace=f1c3a0cd0405041c",
	"gemm/w2/small":        "elapsed=10878859 stats=64/0/0/64/1605632 cache=49/79/7/0/0/71/0/0/1605632/2588672 places=64/bc768d9ceb5536a7 events=1419 trace=ab79b509350fde17",
	"gemm/w2/small/cold":   "elapsed=10878859 stats=64/0/0/64/1605632 cache=49/79/7/0/0/71/0/0/1605632/2588672 places=64/bc768d9ceb5536a7 events=1419 trace=ab79b509350fde17",
	"gemm/w2/small/warm":   "elapsed=10878859 stats=64/0/0/64/1605632 cache=49/79/7/0/0/71/0/0/1605632/2588672 places=64/bc768d9ceb5536a7 events=1419 trace=ab79b509350fde17",
	"gemm/w4/nocache":      "elapsed=14962704 stats=64/0/0/64/0 cache=0/0/0/0/0/0/0/0/0/0 places=64/98122f6616f55e43 events=1412 trace=d57784a82bac60bd",
	"gemm/w4/nocache/cold": "elapsed=14962704 stats=64/0/0/64/0 cache=0/0/0/0/0/0/0/0/0/0 places=64/98122f6616f55e43 events=1412 trace=d57784a82bac60bd",
	"gemm/w4/nocache/warm": "elapsed=14962704 stats=64/0/0/64/0 cache=0/0/0/0/0/0/0/0/0/0 places=64/98122f6616f55e43 events=1412 trace=d57784a82bac60bd",
	"gemm/w4/set":          "elapsed=6838122 stats=64/0/0/64/3211264 cache=98/30/22/0/0/0/0/0/3211264/983040 places=64/db59c53142b6fbd0 events=1162 trace=48dcb9412fc6f913",
	"gemm/w4/set/cold":     "elapsed=6838122 stats=64/0/0/64/3211264 cache=98/30/22/0/0/0/0/0/3211264/983040 places=64/db59c53142b6fbd0 events=1162 trace=48dcb9412fc6f913",
	"gemm/w4/set/warm":     "elapsed=6838122 stats=64/0/0/64/3211264 cache=98/30/22/0/0/0/0/0/3211264/983040 places=64/db59c53142b6fbd0 events=1162 trace=48dcb9412fc6f913",
	"gemm/w4/small":        "elapsed=12046529 stats=64/0/0/64/1146880 cache=35/93/7/0/0/85/0/0/1146880/3047424 places=64/e35b3d78050f5ddf events=1491 trace=675c8e4a8a815816",
	"gemm/w4/small/cold":   "elapsed=12046529 stats=64/0/0/64/1146880 cache=35/93/7/0/0/85/0/0/1146880/3047424 places=64/e35b3d78050f5ddf events=1491 trace=675c8e4a8a815816",
	"gemm/w4/small/warm":   "elapsed=12046529 stats=64/0/0/64/1146880 cache=35/93/7/0/0/85/0/0/1146880/3047424 places=64/e35b3d78050f5ddf events=1491 trace=675c8e4a8a815816",
	"spmv/w1/nocache":      "elapsed=9454136 stats=26/0/0/26/0 cache=0/0/0/0/0/0/0/0/0/0 places=26/3cdcdbe2fc0f2cbc events=593 trace=beae793794a87ace",
	"spmv/w1/nocache/cold": "elapsed=9454136 stats=26/0/0/26/0 cache=0/0/0/0/0/0/0/0/0/0 places=26/3cdcdbe2fc0f2cbc events=593 trace=beae793794a87ace",
	"spmv/w1/nocache/warm": "elapsed=9454136 stats=26/0/0/26/0 cache=0/0/0/0/0/0/0/0/0/0 places=26/3cdcdbe2fc0f2cbc events=593 trace=beae793794a87ace",
	"spmv/w1/set":          "elapsed=7715042 stats=26/0/0/26/937724 cache=18/54/44/0/0/0/0/0/807944/2419168 places=26/11b8f652643929b1 events=627 trace=1a7d92aad969d074",
	"spmv/w1/set/cold":     "elapsed=8578064 stats=26/0/0/26/535888 cache=9/63/53/0/0/0/0/0/406108/2821004 places=26/a785aecd78427b95 events=672 trace=8be372a29bd1b308",
	"spmv/w1/set/warm":     "elapsed=7716460 stats=26/0/0/26/936732 cache=18/54/44/0/0/0/0/0/805960/2421152 places=26/1fdb57542ea78fc5 events=627 trace=6686f4ce3a6b3748",
	"spmv/w1/small":        "elapsed=8873694 stats=26/0/0/26/270824 cache=6/66/63/0/0/0/0/0/270824/2956288 places=26/9157c6e293690ae0 events=701 trace=66f0484856d59dc6",
	"spmv/w1/small/cold":   "elapsed=8874996 stats=26/0/0/26/269000 cache=6/66/63/0/0/0/0/0/269000/2958112 places=26/e6cf9e52e4485ff0 events=701 trace=6501c03019a30076",
	"spmv/w1/small/warm":   "elapsed=8874580 stats=26/0/0/26/269584 cache=6/66/63/0/0/0/0/0/269584/2957528 places=26/2335d1cd0291d898 events=701 trace=5eff7214f0d89832",
	"spmv/w2/nocache":      "elapsed=7179725 stats=26/0/0/26/0 cache=0/0/0/0/0/0/0/0/0/0 places=26/3cdcdbe2fc0f2cbc events=594 trace=bc4189e797d9081c",
	"spmv/w2/nocache/cold": "elapsed=7181202 stats=26/0/0/26/0 cache=0/0/0/0/0/0/0/0/0/0 places=26/3f8fa795f04d7d90 events=594 trace=59976d7346810a51",
	"spmv/w2/nocache/warm": "elapsed=7180922 stats=26/0/0/26/0 cache=0/0/0/0/0/0/0/0/0/0 places=26/23b8529ea518ae48 events=594 trace=6a0ffb98d454106d",
	"spmv/w2/set":          "elapsed=5855485 stats=26/0/0/26/937724 cache=18/54/44/0/0/0/0/0/807944/2419168 places=26/11b8f652643929b1 events=628 trace=59ada07de3c46588",
	"spmv/w2/set/cold":     "elapsed=6444864 stats=26/0/0/26/599968 cache=9/63/53/0/0/0/0/0/404868/2822244 places=26/a176476ba1ece7a5 events=673 trace=79bd998378edfc4f",
	"spmv/w2/set/warm":     "elapsed=5855740 stats=26/0/0/26/937352 cache=18/54/44/0/0/0/0/0/807200/2419912 places=26/6a7f792d7c50c994 events=628 trace=4d1feef5e159b698",
	"spmv/w2/small":        "elapsed=7059785 stats=26/0/0/26/270184 cache=2/70/52/0/0/15/0/0/8200/3218912 places=26/72ff0ff2b5f9ed80 events=722 trace=931bbcf3ebc69d63",
	"spmv/w2/small/cold":   "elapsed=7061323 stats=26/0/0/26/268568 cache=2/70/52/0/0/15/0/0/8200/3218912 places=26/a20f34ceee57139a events=722 trace=65bd9fd6782a80bc",
	"spmv/w2/small/warm":   "elapsed=7060644 stats=26/0/0/26/267668 cache=2/70/52/0/0/15/0/0/8200/3218912 places=26/84affa55a0b5041b events=722 trace=a62ca4ff14ffc4d9",
	"spmv/w4/nocache":      "elapsed=7155725 stats=26/0/0/26/0 cache=0/0/0/0/0/0/0/0/0/0 places=26/3cdcdbe2fc0f2cbc events=596 trace=4c3fdfcce3870291",
	"spmv/w4/nocache/cold": "elapsed=7155725 stats=26/0/0/26/0 cache=0/0/0/0/0/0/0/0/0/0 places=26/3cdcdbe2fc0f2cbc events=596 trace=4c3fdfcce3870291",
	"spmv/w4/nocache/warm": "elapsed=7155725 stats=26/0/0/26/0 cache=0/0/0/0/0/0/0/0/0/0 places=26/3cdcdbe2fc0f2cbc events=596 trace=4c3fdfcce3870291",
	"spmv/w4/set":          "elapsed=5840627 stats=26/0/0/26/929524 cache=14/58/48/0/0/1/0/0/670288/2556824 places=26/04c01c7c48f0c6fe events=652 trace=eec82db0fb186e51",
	"spmv/w4/set/cold":     "elapsed=6055777 stats=26/0/0/26/801068 cache=12/60/51/0/0/1/0/0/538888/2688224 places=26/60dca09ef341ef94 events=664 trace=04e5a3c5c05cc1e3",
	"spmv/w4/set/warm":     "elapsed=6057956 stats=26/0/0/26/665496 cache=12/60/51/0/0/1/0/0/536096/2691016 places=26/ebcce0b0533246b2 events=664 trace=7c77f0dbecb33922",
	"spmv/w4/small":        "elapsed=6561580 stats=26/0/0/26/285828 cache=8/64/28/0/0/31/0/0/155160/3071952 places=26/563bd68955a16e8d events=690 trace=6418fa922f423ea8",
	"spmv/w4/small/cold":   "elapsed=7149725 stats=26/0/0/26/0 cache=0/72/34/0/0/33/0/0/0/3227112 places=26/3cdcdbe2fc0f2cbc events=730 trace=c289103131b37b91",
	"spmv/w4/small/warm":   "elapsed=7149725 stats=26/0/0/26/0 cache=0/72/34/0/0/33/0/0/0/3227112 places=26/3cdcdbe2fc0f2cbc events=730 trace=c289103131b37b91",
	"grid/abort":           "elapsed=4076820 stats=36/0/0/36/3538944 cache=49/20/17/12/9/0/0/3/3211264/1310720 places=36/50b73cebc29a3e6f events=512 trace=003672d406de4b88",
	"grid/abort/cold":      "elapsed=5760542 stats=36/0/0/36/3932160 cache=56/15/18/16/11/0/0/4/3670016/983040 places=36/826a73c969bef883 events=538 trace=aaa0782bc20f7af6",
	"grid/invalidate":      "elapsed=4122299 stats=36/0/0/36/3735552 cache=54/18/7/0/0/0/3/0/3538944/1179648 places=36/cfd6471f7ab53c0c events=482 trace=0cf2fe7c7cd0e9a2",
	"grid/release":         "elapsed=1608875 stats=36/0/0/36/2359296 cache=36/12/4/0/0/0/0/0/2359296/786432 places=36/a1e6eba31b06fd17 events=287 trace=536b24293553fc80",
}
