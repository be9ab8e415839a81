package hotspot

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

// BenchmarkStencilStepFunctional measures the host-side stencil throughput.
func BenchmarkStencilStepFunctional(b *testing.B) {
	const d = 512
	blk := &Block{
		D:     d,
		In:    make([]float32, d*d),
		Out:   make([]float32, d*d),
		Power: make([]float32, d*d),
	}
	tiles := d / BlockDim
	b.SetBytes(d * d * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ty := 0; ty < tiles; ty++ {
			for tx := 0; tx < tiles; tx++ {
				blk.StepTile(ty, tx)
			}
		}
		blk.Swap()
	}
}

// BenchmarkNorthupPaperScalePhantom measures the wall cost of one
// paper-scale out-of-core stencil simulation.
func BenchmarkNorthupPaperScalePhantom(b *testing.B) {
	var elapsed sim.Time
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD,
			StorageMiB: 24576, DRAMMiB: 2048})
		opts := core.DefaultOptions()
		opts.Phantom = true
		rt := core.NewRuntime(e, tree, opts)
		res, err := RunNorthup(rt, Config{N: 16384, ChunkDim: 8192, Iters: 60})
		if err != nil {
			b.Fatal(err)
		}
		elapsed = res.Stats.Elapsed
	}
	b.ReportMetric(elapsed.Seconds(), "virtual-s")
}

// BenchmarkStealPaperScale measures the Figure 11 inner loop (one cell),
// with the engine's events, callbacks and procs per op.
func BenchmarkStealPaperScale(b *testing.B) {
	b.ReportAllocs()
	var elapsed sim.Time
	var st sim.Stats
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD,
			StorageMiB: 8192, DRAMMiB: 2048, WithCPU: true})
		opts := core.DefaultOptions()
		opts.Phantom = true
		rt := core.NewRuntime(e, tree, opts)
		res, err := RunSteal(rt, StealConfig{M: 16384, ChunkDim: 8192,
			Iters: 60, GPUQueues: 32, Mode: CPUGPU})
		if err != nil {
			b.Fatal(err)
		}
		elapsed = res.Stats.Elapsed
		st = e.Stats()
	}
	b.ReportMetric(elapsed.Seconds(), "virtual-s")
	b.ReportMetric(float64(st.Events), "events/op")
	b.ReportMetric(float64(st.Callbacks), "callbacks/op")
	b.ReportMetric(float64(st.Procs), "procs/op")
}
