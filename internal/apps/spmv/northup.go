package spmv

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/workload"
)

// Config parameterizes a SpMV run.
type Config struct {
	// N is the matrix dimension (rows = cols); the paper uses 16M rows.
	N int
	// AvgNNZ is the average non-zeros per row of the generated input.
	AvgNNZ int
	// Kind selects the sparse structure (uniform / power-law / banded).
	Kind workload.SparseKind
	Seed int64
	// Chunks is the initial even division of rows (the paper divides the
	// matrix "into four chunks in row-dimension"). Shards that do not fit
	// the next level are split further by the recursion.
	Chunks int
	// Depth is the shard pipeline depth (default 2).
	Depth int
	// Iters repeats the multiply as a power iteration: after each pass,
	// x <- y / ||y||_inf (normalized on the CPU) and the matrix streams
	// from storage again. Default 1 (a single SpMV).
	Iters int
	// Matrix supplies an explicit input (e.g. parsed from a University of
	// Florida collection file via workload.ParseMatrixMarket) instead of
	// the synthetic generator. Requires a square matrix and a functional
	// (non-phantom) runtime; N, AvgNNZ, Kind and Seed are then ignored for
	// matrix generation.
	Matrix *workload.CSR
}

func (cfg *Config) setDefaults() error {
	if cfg.Matrix != nil {
		if cfg.Matrix.NRows != cfg.Matrix.NCols {
			return fmt.Errorf("spmv: provided matrix is %dx%d; square required",
				cfg.Matrix.NRows, cfg.Matrix.NCols)
		}
		cfg.N = cfg.Matrix.NRows
	}
	if cfg.N <= 0 {
		return fmt.Errorf("spmv: N=%d invalid", cfg.N)
	}
	// Zero means the default; a negative value is refused, not read as it.
	for _, f := range []struct {
		name string
		v    *int
		def  int
	}{{"AvgNNZ", &cfg.AvgNNZ, 16}, {"Chunks", &cfg.Chunks, 4}, {"Depth", &cfg.Depth, 2}, {"Iters", &cfg.Iters, 1}} {
		switch {
		case *f.v < 0:
			return fmt.Errorf("spmv: %s=%d invalid (0 means the default, %d)", f.name, *f.v, f.def)
		case *f.v == 0:
			*f.v = f.def
		}
	}
	return nil
}

// Result carries a run's output and measurements.
type Result struct {
	// Y is the result vector (nil in phantom mode).
	Y []float32
	// Stats is the measured run.
	Stats core.RunStats
	// Shards is the number of leaf shards actually processed.
	Shards int
	// Splits counts recursive shard subdivisions forced by capacity — the
	// §IV-C "unique advantage" of the recursive scheme on skewed inputs.
	Splits int
}

// shardRange is a half-open row range.
type shardRange struct{ r0, r1 int }

// shardBytes returns the storage footprint of rows [r0, r1): the row_ptr
// slice plus column indices and values.
func shardBytes(rowPtr []int32, r0, r1 int) int64 {
	nnz := int64(rowPtr[r1] - rowPtr[r0])
	return int64(r1-r0+1)*4 + nnz*8
}

// splitByNNZ returns the row that most evenly halves the range's non-zeros
// (computed from row_ptr, as §IV-C prescribes).
func splitByNNZ(rowPtr []int32, r0, r1 int) int {
	target := rowPtr[r0] + (rowPtr[r1]-rowPtr[r0])/2
	lo, hi := r0+1, r1-1
	for lo < hi {
		mid := (lo + hi) / 2
		if rowPtr[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Kernel builds the CSR-Adaptive dispatch for one shard: one workgroup per
// row block, with the roofline cost averaged over blocks. Functional
// operands may be nil (phantom mode).
func Kernel(blocks []RowBlock, rowPtr []int32, col []int32, val, x, y []float32) gpu.Kernel {
	var flops, bytes float64
	for _, b := range blocks {
		f, by := BlockCost(b, rowPtr)
		flops += f
		bytes += by
	}
	n := float64(len(blocks))
	if n == 0 {
		n = 1
	}
	kern := gpu.Kernel{
		Name:          "csr-adaptive",
		FlopsPerGroup: flops / n,
		BytesPerGroup: bytes / n,
		LocalBytes:    NNZPerGroup * 8,
	}
	if val != nil {
		kern.Run = func(g int) { execGroup(blocks, g, rowPtr, col, val, x, y) }
	}
	return kern
}

// RunNorthup executes out-of-core SpMV per §IV-C: row_ptr, col_id and data
// live on the storage root; the dense vectors are resident at the fastest
// feasible level (the paper's requirement that "the fastest memory has to
// be big enough to hold the vector"); shards of rows stream through the
// hierarchy, splitting recursively when a shard's non-zeros exceed the next
// level's capacity.
func RunNorthup(rt *core.Runtime, cfg Config) (*Result, error) {
	p, err := newProblem(rt, cfg)
	if err != nil {
		return nil, err
	}
	if err := p.planShards(p.cfg.Depth); err != nil {
		return nil, err
	}
	shards := p.shards
	slots := make([]shardBufs, len(shards))
	stats, err := rt.Run("spmv-northup", func(c *core.Ctx) error {
		return p.withVectors(c, func(v vectors) error {
			for iter := 0; iter < p.cfg.Iters; iter++ {
				err := c.Pipeline(len(shards), p.cfg.Depth,
					func(sub *core.Ctx, si int) error { // load shard from storage
						s, err := p.loadShard(sub, shards[si])
						if err != nil {
							return err
						}
						slots[si] = s
						// The pipeline schedule is deterministic: shard si+1
						// loads next. Hint its extents behind this shard's
						// fetches.
						if nx := si + 1; nx < len(shards) {
							p.prefetchShard(sub, shards[nx])
						}
						return nil
					},
					func(sub *core.Ctx, si int) error { // bin on CPU, compute at leaf
						s := slots[si]
						err := p.shardStep(sub, shards[si], s, v)
						sub.Unpin(s.row)
						sub.Unpin(s.col)
						sub.Unpin(s.val)
						slots[si] = shardBufs{}
						return err
					},
				)
				if err != nil {
					return err
				}
				if iter < p.cfg.Iters-1 {
					if err := p.normalize(c, v); err != nil {
						return err
					}
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return p.result(stats)
}

// RunInMemory executes the in-memory baseline: matrix and vectors resident
// in DRAM, CPU binning plus one kernel dispatch, no I/O measured.
func RunInMemory(rt *core.Runtime, cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	rootNode := rt.Tree().Root()
	if rootNode.Store != nil {
		return nil, fmt.Errorf("spmv: in-memory baseline needs a DRAM root (got %v)", rootNode)
	}
	n := cfg.N
	functional := !rt.Phantom()
	m, rowPtrHost, err := hostMatrix(cfg, functional)
	if err != nil {
		return nil, err
	}
	nnz := int64(rowPtrHost[n])

	var res *Result
	stats, err := rt.Run("spmv-inmemory", func(c *core.Ctx) error {
		// Buffers exist (capacity accounting) but inputs appear untimed.
		for _, size := range []int64{int64(n+1) * 4, nnz * 4, nnz * 4, int64(n) * 4, int64(n) * 4} {
			if _, err := c.Alloc(size); err != nil {
				return err
			}
		}
		var blocks []RowBlock
		if _, err := c.RunCPU(BinFlopsPerRow*float64(n), BinBytesPerRow*float64(n),
			func() { blocks = BuildRowBlocks(rowPtrHost) }); err != nil {
			return err
		}
		if blocks == nil {
			blocks = BuildRowBlocks(rowPtrHost)
		}
		var col []int32
		var val, x, y []float32
		if functional {
			col, val = m.ColIdx, m.Val
			x = workload.Vector(n, cfg.Seed+1)
			y = make([]float32, n)
		}
		kern := Kernel(blocks, rowPtrHost, col, val, x, y)
		if _, err := c.LaunchKernel(kern, len(blocks)); err != nil {
			return err
		}
		res = &Result{Y: y, Shards: 1}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}
