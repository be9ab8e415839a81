package figures

import (
	"fmt"

	"repro/internal/apps/gemm"
	"repro/internal/apps/hotspot"
	"repro/internal/apps/spmv"
	"repro/internal/core"
	"repro/internal/workload"
)

// hotspotIters is the stencil iteration count per out-of-core pass
// (Rodinia's default thermal simulation length). It is what makes HotSpot's
// leaf compute substantial relative to its I/O, as the paper's breakdowns
// require (GPU share 22% on disk, 59% on SSD — Fig. 7).
const hotspotIters = 60

// runGEMM runs dense matrix multiply at this scale.
func runGEMM(rt *core.Runtime, o Options) (core.RunStats, error) {
	res, err := gemm.RunNorthup(rt, gemm.Config{N: o.denseN(), Seed: 1})
	if err != nil {
		return core.RunStats{}, err
	}
	return res.Stats, nil
}

// runHotSpot runs the thermal stencil at this scale.
func runHotSpot(rt *core.Runtime, store Storage, o Options) (core.RunStats, error) {
	cfg := hotspot.Config{N: o.denseN(), Seed: 2, Iters: hotspotIters}
	if store != InMemory {
		cfg.ChunkDim = paperHotChunk / o.Scale
	}
	res, err := hotspot.RunNorthup(rt, cfg)
	if err != nil {
		return core.RunStats{}, err
	}
	return res.Stats, nil
}

// runSpMV runs CSR-Adaptive at this scale. The paper's inputs come from
// the Florida collection ("16 million rows ... divided into four chunks",
// spmv.Config's default); the substitute is a uniform synthetic matrix of
// the same scale.
func runSpMV(rt *core.Runtime, o Options) (core.RunStats, error) {
	res, err := spmv.RunNorthup(rt, spmv.Config{
		N:      o.spmvRows(),
		AvgNNZ: paperSpmvNNZ,
		Kind:   workload.SparseUniform,
		Seed:   3,
	})
	if err != nil {
		return core.RunStats{}, err
	}
	return res.Stats, nil
}

// checkShape is a helper for tests and self-validation: it fails when a
// value falls outside [lo, hi].
func checkShape(name string, v, lo, hi float64) error {
	if v < lo || v > hi {
		return fmt.Errorf("figures: %s = %.3g outside expected [%g, %g]", name, v, lo, hi)
	}
	return nil
}
