package gemm

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// TestStreamedNorthupMatchesReference3Level asserts the streamed staging
// path is functionally transparent: routing the A/B/C moves through the
// streaming engine must reproduce the reference product exactly.
func TestStreamedNorthupMatchesReference3Level(t *testing.T) {
	e := sim.NewEngine()
	tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
		StorageMiB: 64, DRAMMiB: 4, GPUMemMiB: 1})
	rt := core.NewRuntime(e, tree, core.DefaultOptions())
	cfg := Config{N: 256, Seed: 13, Streamed: true,
		StreamOpts: core.StreamOptions{SubChunks: 4}}
	res, err := RunNorthup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	A := workload.Dense(cfg.N, cfg.N, cfg.Seed)
	B := workload.Dense(cfg.N, cfg.N, cfg.Seed+1)
	want := make([]float32, cfg.N*cfg.N)
	Reference(want, A, B, cfg.N, cfg.N, cfg.N)
	if !almostEqual(res.C, want, cfg.N) {
		t.Fatal("streamed result differs from reference")
	}
	if ss := rt.StreamStats(); ss.Streams == 0 || ss.SubChunks <= ss.Streams {
		t.Fatalf("streaming engine not exercised: %+v", ss)
	}
}

// TestStreamedAdaptiveNoWorseThanMonolithic asserts the adaptive sizer
// never slows a run down: on single-hop staging moves it degenerates to one
// sub-chunk and the virtual time matches the monolithic path.
func TestStreamedAdaptiveNoWorseThanMonolithic(t *testing.T) {
	elapsed := func(streamed bool) sim.Time {
		rt := newOutOfCoreRuntime(true)
		res, err := RunNorthup(rt, Config{N: 512, Seed: 7, Streamed: streamed})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Elapsed
	}
	if s, m := elapsed(true), elapsed(false); s > m {
		t.Fatalf("adaptive streamed run slower than monolithic: %v > %v", s, m)
	}
}
