package hotspot

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// TestStreamed3LevelMatchesReference asserts streaming the chunk, halo, and
// GPU staging moves is functionally transparent on the discrete tree.
func TestStreamed3LevelMatchesReference(t *testing.T) {
	e := sim.NewEngine()
	tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
		StorageMiB: 64, DRAMMiB: 8, GPUMemMiB: 4})
	rt := core.NewRuntime(e, tree, core.DefaultOptions())
	cfg := Config{N: 64, Seed: 6, ChunkDim: 32, Iters: 3, Passes: 2, Streamed: true,
		StreamOpts: core.StreamOptions{SubChunks: 3}}
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.HotSpotGrid(cfg.N, cfg.Seed)
	mid, err := ReferenceBlocked(g.Temp, g.Power, cfg.N, cfg.ChunkDim, cfg.Iters)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceBlocked(mid, g.Power, cfg.N, cfg.ChunkDim, cfg.Iters)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Temp, want) {
		t.Fatal("streamed 3-level result differs from blocked reference")
	}
	if ss := rt.StreamStats(); ss.Streams == 0 {
		t.Fatalf("streaming engine not exercised: %+v", ss)
	}
}

// TestStreamedAdaptiveNoWorse asserts adaptive streaming never slows the
// 2-level run down (single-hop moves degenerate to the monolithic path).
func TestStreamedAdaptiveNoWorse(t *testing.T) {
	elapsed := func(streamed bool) sim.Time {
		rt := newHotspotRuntime(true, 8)
		res, err := RunNorthup(rt, Config{N: 128, Seed: 5, ChunkDim: 64, Iters: 2,
			Streamed: streamed})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Elapsed
	}
	if s, m := elapsed(true), elapsed(false); s > m {
		t.Fatalf("adaptive streamed run slower than monolithic: %v > %v", s, m)
	}
}
