package hotspot

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/view"
	"repro/internal/workload"
)

// chunkStep advances one chunk at the leaf lc by iters Jacobi steps. blk
// is nil in phantom mode; implementations call blk.Swap() after every
// step, so an odd count leaves the result in the out backing array, which
// computeChunk folds back.
type chunkStep func(lc *core.Ctx, blk *Block, d, iters int) error

// launchSteps is the GPU leaf step: one tile-kernel launch per iteration.
func launchSteps(lc *core.Ctx, blk *Block, d, iters int) error {
	for it := 0; it < iters; it++ {
		kern, groups := TileKernelFor(blk, d)
		if _, err := lc.LaunchKernel(kern, groups); err != nil {
			return err
		}
		if blk != nil {
			blk.Swap()
		}
	}
	return nil
}

// problem is one HotSpot instance as every schedule sees it: the n x n
// grid cut into d x d chunks, the chunk-major inputs, the leaf step each
// chunk runs, and the read-back of the result. A schedule only decides
// which chunks run where and in what order.
type problem struct {
	n, d, cb, chunks int
	seed             int64
	iters            int
	functional       bool
	chunkBytes       int64
	borderBytes      int64 // one chunk's packed border record
	gridBytes        int64
	streamed         bool
	streamOpts       core.StreamOptions
	step             chunkStep
}

// newProblem lays cfg's grid out in d x d chunks that run step at the
// leaf. cfg must already be validated and defaulted.
func newProblem(rt *core.Runtime, cfg Config, d int, step chunkStep) *problem {
	cb := cfg.N / d
	return &problem{
		n: cfg.N, d: d, cb: cb, chunks: cb * cb,
		seed: cfg.Seed, iters: cfg.Iters, functional: !rt.Phantom(),
		chunkBytes:  int64(d) * int64(d) * 4,
		borderBytes: int64(4*d) * 4,
		gridBytes:   int64(cfg.N) * int64(cfg.N) * 4,
		streamed:    cfg.Streamed, streamOpts: cfg.StreamOpts,
		step: step,
	}
}

// inputs preprocesses the grid (untimed, as in the paper): the chunk-major
// temperature and power files and the initial border file, all nil in
// phantom mode.
func (p *problem) inputs() (temp, power, border []byte) {
	if !p.functional {
		return nil, nil, nil
	}
	grid := workload.HotSpotGrid(p.n, p.seed)
	return view.F32Bytes(toChunkMajor(grid.Temp, p.n, p.d)),
		view.F32Bytes(toChunkMajor(grid.Power, p.n, p.d)),
		view.F32Bytes(packAllBorders(grid.Temp, p.n, p.d))
}

// chunkBufs are one chunk's buffers at one node: the temperature in and
// out grids, the power map and the packed borders.
type chunkBufs struct{ tin, tout, pow, bord *core.Buffer }

// allocChunk allocates all four of a chunk's buffers at node.
func (p *problem) allocChunk(c *core.Ctx, node *topo.Node) (chunkBufs, error) {
	var b chunkBufs
	var err error
	if b.tin, err = c.AllocAt(node, p.chunkBytes); err != nil {
		return b, err
	}
	if b.tout, err = c.AllocAt(node, p.chunkBytes); err != nil {
		return b, err
	}
	if b.pow, err = c.AllocAt(node, p.chunkBytes); err != nil {
		return b, err
	}
	b.bord, err = c.AllocAt(node, p.borderBytes)
	return b, err
}

// release frees buffers from allocChunk.
func (b chunkBufs) release(c *core.Ctx) {
	c.Release(b.tin)
	c.Release(b.tout)
	c.Release(b.pow)
	c.Release(b.bord)
}

// moveDown and moveUp move n bytes between adjacent levels, through the
// streaming transfer engine when the problem is streamed.
func (p *problem) moveDown(c *core.Ctx, dst, src *core.Buffer, dstOff, srcOff, n int64) error {
	if p.streamed {
		return c.MoveDataDownStreamed(dst, src, dstOff, srcOff, n, p.streamOpts)
	}
	return c.MoveData(dst, src, dstOff, srcOff, n)
}

func (p *problem) moveUp(c *core.Ctx, dst, src *core.Buffer, dstOff, srcOff, n int64) error {
	if p.streamed {
		return c.MoveDataUpStreamed(dst, src, dstOff, srcOff, n, p.streamOpts)
	}
	return c.MoveData(dst, src, dstOff, srcOff, n)
}

// computeChunk runs the leaf step on chunk ci, staged in b at dc's node.
// When dc is a leaf (the 2-level APU tree) the step runs there; otherwise
// (the 3-level discrete tree of Figure 8, or a branch whose GPU sits one
// level down) the chunk and its borders move one more level down into
// device memory, compute there, and the result moves back up.
func (p *problem) computeChunk(dc *core.Ctx, b chunkBufs, ci int) error {
	run := func(lc *core.Ctx, b chunkBufs) error {
		var blk *Block
		if p.functional {
			blk = &Block{
				D:     p.d,
				In:    view.F32(b.tin.Bytes()),
				Out:   view.F32(b.tout.Bytes()),
				Power: view.F32(b.pow.Bytes()),
				B:     unpackBorders(view.F32(b.bord.Bytes()), p.d, p.cb, ci),
			}
		}
		if err := p.step(lc, blk, p.d, p.iters); err != nil {
			return err
		}
		if p.functional && p.iters%2 == 1 {
			// An odd iteration count leaves the result in the out backing
			// array; fold it back so the store path always reads in.
			copy(view.F32(b.tin.Bytes()), view.F32(b.tout.Bytes()))
		}
		return nil
	}

	if dc.IsLeaf() {
		return run(dc, b)
	}

	// Stage the chunk into the child (GPU device) memory.
	child := dc.Children()[0]
	g, err := p.allocChunk(dc, child)
	if err != nil {
		return err
	}
	defer g.release(dc)
	if err := p.moveDown(dc, g.tin, b.tin, 0, 0, p.chunkBytes); err != nil {
		return err
	}
	if err := p.moveDown(dc, g.pow, b.pow, 0, 0, p.chunkBytes); err != nil {
		return err
	}
	if err := p.moveDown(dc, g.bord, b.bord, 0, 0, p.borderBytes); err != nil {
		return err
	}
	err = dc.Descend(child, func(lc *core.Ctx) error {
		if !lc.IsLeaf() {
			return fmt.Errorf("hotspot: trees deeper than 3 levels are not supported")
		}
		return run(lc, g)
	})
	if err != nil {
		return err
	}
	return p.moveUp(dc, b.tin, g.tin, 0, 0, p.chunkBytes)
}

// readBack reads a chunk-major grid file back in row-major order
// (untimed).
func (p *problem) readBack(f *core.Buffer) ([]float32, error) {
	grid := make([]float32, p.n*p.n)
	if err := f.File().Peek(view.F32Bytes(grid), 0); err != nil {
		return nil, err
	}
	return fromChunkMajor(grid, p.n, p.d), nil
}
