package gemm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/view"
	"repro/internal/workload"
)

// problem is one out-of-core GEMM instance as every schedule sees it: the
// validated config, the staging node, the shard plan, the A, B and C files
// on the storage root (B presharded to the plan), and the leaf step that
// multiplies one row shard by one column shard. A schedule only decides
// the order in which C blocks are computed and what stays resident.
type problem struct {
	cfg        Config
	functional bool
	dram       *topo.Node
	// n is the matrix dimension, s the shard dimension, cb = n/s the C
	// block grid's edge.
	n, s, cb   int
	elems      int64
	shardBytes int64 // one s x n row or column shard
	blockBytes int64 // one s x s block of C

	fa, fb, fc *core.Buffer
}

// newProblem validates cfg against the runtime's tree, picks the shard
// dimension from the staging level's free bytes less reserved (bytes the
// schedule keeps resident there for the whole run), and creates the input
// files on the storage root.
func newProblem(rt *core.Runtime, cfg Config, reserved int64) (*problem, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	root := rt.Tree().Root()
	if root.Store == nil {
		return nil, fmt.Errorf("gemm: tree root %v is not storage", root)
	}
	if len(root.Children) != 1 {
		return nil, fmt.Errorf("gemm: expected a single staging child under the root")
	}
	dram := root.Children[0]

	n := cfg.N
	elems := int64(n) * int64(n)
	free := dram.Mem.Free() - reserved
	if reserved > 0 && free <= 0 {
		return nil, fmt.Errorf("gemm: %d resident bytes at %v leave no room for the shard working set",
			reserved, dram)
	}
	s := cfg.ShardDim
	if s == 0 {
		var err error
		if s, err = chooseShardDim(n, cfg.Depth, free); err != nil {
			return nil, err
		}
	}
	if n%s != 0 {
		return nil, fmt.Errorf("gemm: shard %d does not divide N=%d", s, n)
	}
	p := &problem{cfg: cfg, functional: !rt.Phantom(), dram: dram,
		n: n, s: s, cb: n / s, elems: elems,
		shardBytes: int64(s) * int64(n) * 4, blockBytes: int64(s) * int64(s) * 4}

	// Inputs resident on storage. B is presharded (the paper's one-time
	// preprocessing); in phantom mode only the file extents exist.
	var aData, bPre []float32
	if p.functional {
		aData = workload.Dense(n, n, cfg.Seed)
		b := workload.Dense(n, n, cfg.Seed+1)
		bPre = PreshardB(b, n, s)
	}
	var err error
	if p.fa, err = rt.CreateInput(root, "gemm-A", elems*4, view.F32Bytes(aData)); err != nil {
		return nil, err
	}
	if p.fb, err = rt.CreateInput(root, "gemm-B", elems*4, view.F32Bytes(bPre)); err != nil {
		return nil, err
	}
	if p.fc, err = rt.CreateInput(root, "gemm-C", elems*4, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// blockOff is the C file offset of block (i, j): C is stored block-major.
func (p *problem) blockOff(i, j int) int64 {
	return (int64(i)*int64(p.cb) + int64(j)) * p.blockBytes
}

// multiply is the leaf step: it descends to the staging level and computes
// the s x s block cBuf = aBuf (s x n row shard) · bBuf (n x s column
// shard), all three resident there.
func (p *problem) multiply(c *core.Ctx, aBuf, bBuf, cBuf *core.Buffer) error {
	return c.Descend(p.dram, func(dc *core.Ctx) error {
		return p.multiplyShard(dc, aBuf, bBuf, cBuf, p.s, p.n, p.s)
	})
}

// moveDown and moveUp move n bytes between adjacent levels, through the
// streaming transfer engine when the config asks for streamed moves.
func (p *problem) moveDown(c *core.Ctx, dst, src *core.Buffer, dstOff, srcOff, n int64) error {
	if p.cfg.Streamed {
		return c.MoveDataDownStreamed(dst, src, dstOff, srcOff, n, p.cfg.StreamOpts)
	}
	return c.MoveData(dst, src, dstOff, srcOff, n)
}

func (p *problem) moveUp(c *core.Ctx, dst, src *core.Buffer, dstOff, srcOff, n int64) error {
	if p.cfg.Streamed {
		return c.MoveDataUpStreamed(dst, src, dstOff, srcOff, n, p.cfg.StreamOpts)
	}
	return c.MoveData(dst, src, dstOff, srcOff, n)
}

// result wraps a finished run, assembling C from its block-major file in
// functional runs (untimed).
func (p *problem) result(stats core.RunStats) (*Result, error) {
	res := &Result{Stats: stats, ShardDim: p.s}
	if p.functional {
		blocks := make([]float32, p.elems)
		if err := p.fc.File().Peek(view.F32Bytes(blocks), 0); err != nil {
			return nil, err
		}
		res.C = assembleBlockMajor(blocks, p.n, p.s)
	}
	return res, nil
}
