package spmv

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// BenchmarkBinning measures the CPU-side CSR-Adaptive row binning of a
// power-law matrix and of the benchmark's out-of-core uniform one.
func BenchmarkBinning(b *testing.B) {
	for _, in := range []struct {
		name string
		kind workload.SparseKind
		rows int
	}{{"powerlaw-100k", workload.SparsePowerLaw, 100_000}, {"uniform-4M", workload.SparseUniform, 4 << 20}} {
		b.Run(in.name, func(b *testing.B) {
			rowPtr, err := workload.SparseRowPtr(in.kind, in.rows, 16, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(BuildRowBlocks(rowPtr)) == 0 {
					b.Fatal("no blocks")
				}
			}
		})
	}
}

// BenchmarkExecBlocksFunctional measures the host-side SpMV throughput
// through the row-block kernels.
func BenchmarkExecBlocksFunctional(b *testing.B) {
	const n = 50_000
	m := workload.Sparse(workload.SparseUniform, n, 16, 2)
	x := workload.Vector(n, 3)
	y := make([]float32, n)
	blocks := BuildRowBlocks(m.RowPtr)
	b.SetBytes(int64(m.NNZ()) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blk := range blocks {
			ExecBlock(blk, m.RowPtr, m.ColIdx, m.Val, x, y)
		}
	}
}

// BenchmarkNorthupPaperScalePhantom measures the wall cost of one
// paper-scale (16M rows) out-of-core SpMV simulation.
func BenchmarkNorthupPaperScalePhantom(b *testing.B) {
	var elapsed sim.Time
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD,
			StorageMiB: 24576, DRAMMiB: 2048, WithCPU: true})
		opts := core.DefaultOptions()
		opts.Phantom = true
		rt := core.NewRuntime(e, tree, opts)
		res, err := RunNorthup(rt, Config{N: 16_777_216, AvgNNZ: 16,
			Kind: workload.SparseUniform, Chunks: 4})
		if err != nil {
			b.Fatal(err)
		}
		elapsed = res.Stats.Elapsed
	}
	b.ReportMetric(elapsed.Seconds(), "virtual-s")
}
