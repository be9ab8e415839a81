package oocsort

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

func newSortRuntime(phantom bool, dramKiB int64) *core.Runtime {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64,
		DRAMMiB: (dramKiB + 1023) / 1024, WithCPU: true})
	opts := core.DefaultOptions()
	opts.Phantom = phantom
	return core.NewRuntime(e, tree, opts)
}

func isSorted(v []float32) bool {
	return sort.SliceIsSorted(v, func(i, j int) bool { return v[i] < v[j] })
}

func TestSortSingleChunk(t *testing.T) {
	// Everything fits one chunk: phase 1 alone sorts.
	rt := newSortRuntime(false, 1024)
	res, err := Run(rt, Config{N: 10_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 1 || res.MergePasses != 0 {
		t.Fatalf("runs=%d passes=%d, want 1/0", res.Runs, res.MergePasses)
	}
	if !isSorted(res.Sorted) {
		t.Fatal("output not sorted")
	}
}

func TestSortMultiRunMerge(t *testing.T) {
	// Forces several runs and a combine pass; output must be the exact
	// multiset, sorted.
	rt := newSortRuntime(false, 64) // 64 KiB staging: ~8Ki-key chunks
	cfg := Config{N: 50_000, Seed: 2, ChunkKeys: 8_000, MergeBlockKeys: 1024}
	res, err := Run(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs < 2 {
		t.Fatalf("runs = %d, want >1", res.Runs)
	}
	if res.MergePasses < 1 {
		t.Fatal("no combine pass")
	}
	if !isSorted(res.Sorted) {
		t.Fatal("output not sorted")
	}
	want := Keys(cfg.N, cfg.Seed)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if res.Sorted[i] != want[i] {
			t.Fatalf("multiset mismatch at %d: %g vs %g", i, res.Sorted[i], want[i])
		}
	}
	bd := &res.Stats.Breakdown
	if bd.Busy(trace.GPUCompute) <= 0 || bd.Busy(trace.CPUCompute) <= 0 || bd.Busy(trace.IO) <= 0 {
		t.Fatalf("missing phases in breakdown: %s", bd)
	}
}

func TestSortMultiPassMerge(t *testing.T) {
	// A tiny merge buffer caps the fan-in, forcing recursion over passes.
	rt := newSortRuntime(false, 64)
	cfg := Config{N: 60_000, Seed: 3, ChunkKeys: 4_000, MergeBlockKeys: 30_000}
	res, err := Run(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MergePasses < 2 {
		t.Fatalf("merge passes = %d, want >= 2 (fan-in capped)", res.MergePasses)
	}
	if !isSorted(res.Sorted) {
		t.Fatal("output not sorted after multi-pass merge")
	}
}

func TestSortPhantomTimingMatches(t *testing.T) {
	cfg := Config{N: 50_000, Seed: 2, ChunkKeys: 8_000, MergeBlockKeys: 1024}
	fun, err := Run(newSortRuntime(false, 64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := Run(newSortRuntime(true, 64), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fun.Stats.Elapsed != ph.Stats.Elapsed {
		t.Fatalf("functional %v != phantom %v", fun.Stats.Elapsed, ph.Stats.Elapsed)
	}
	if ph.Sorted != nil {
		t.Fatal("phantom produced output")
	}
}

func TestSortValidation(t *testing.T) {
	rt := newSortRuntime(true, 64)
	if _, err := Run(rt, Config{N: 0}); err == nil {
		t.Fatal("zero N accepted")
	}
	// Zero means the default; a negative size is refused by name.
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{N: 1000, ChunkKeys: -5}, "ChunkKeys=-5"},
		{Config{N: 1000, MergeBlockKeys: -1}, "MergeBlockKeys=-1"},
	} {
		rt := newSortRuntime(true, 64)
		_, err := Run(rt, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want a refusal naming %s", tc.cfg, err, tc.want)
		}
		if now := rt.Engine().Now(); now != 0 {
			t.Errorf("%+v: refused at %v, after charges", tc.cfg, now)
		}
	}
	cfg := Config{N: 1000}
	if err := cfg.setDefaults(); err != nil || cfg.ChunkKeys != 0 || cfg.MergeBlockKeys != 64<<10 {
		t.Fatalf("zero fields: err %v, defaults %+v", err, cfg)
	}
}

// BenchmarkSortPaperScale sorts a working set eight times the 2 GiB staging
// buffer in phantom mode (the out-of-core regime at realistic scale).
func BenchmarkSortPaperScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD,
			StorageMiB: 65536, DRAMMiB: 2048, WithCPU: true})
		opts := core.DefaultOptions()
		opts.Phantom = true
		rt := core.NewRuntime(e, tree, opts)
		res, err := Run(rt, Config{N: 4 << 30}) // 4Gi keys = 16 GiB
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Stats.Elapsed.Seconds(), "virtual-s")
		b.ReportMetric(float64(res.Runs), "runs")
		b.ReportMetric(float64(res.MergePasses), "merge-passes")
	}
}

// TestRefusesRootWithoutOneStagingChild runs on the committed asymmetric
// spec, whose root has two staging children, and on a storage root that is
// itself the leaf. The schedule stages through exactly one child, so it
// must refuse both trees, naming the child count, instead of leaving a
// branch idle or indexing a child that is not there.
func TestRefusesRootWithoutOneStagingChild(t *testing.T) {
	asym, err := os.ReadFile(filepath.Join("..", "..", "..", "specs", "asymmetric.json"))
	if err != nil {
		t.Fatal(err)
	}
	leafRoot := []byte(`{"name": "leaf-root", "nodes": [{"name": "ssd", "device": "ssd",
		"capacity_mib": 64, "procs": ["apu-gpu", "cpu"]}]}`)
	for _, tc := range []struct {
		spec []byte
		want string
	}{{asym, "2 staging children"}, {leafRoot, "0 staging children"}} {
		spec, err := topo.ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		e := sim.NewEngine()
		tree, err := topo.BuildSpec(e, spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Phantom = true
		_, err = Run(core.NewRuntime(e, tree, opts), Config{N: 100_000, Seed: 1})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want a refusal naming %s", spec.Name, err, tc.want)
		}
	}
}
