package hotspot

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/sched"
	"repro/internal/view"
	"repro/internal/workload"
)

// Config parameterizes a HotSpot-2D run.
type Config struct {
	// N is the grid dimension.
	N int
	// Seed drives input generation (functional runs only).
	Seed int64
	// ChunkDim forces the out-of-core blocking (the paper's 8k for 16k
	// inputs); 0 derives it from the staging capacity.
	ChunkDim int
	// Iters is the number of Jacobi steps per pass (Rodinia's default
	// simulation runs 60 steps).
	Iters int
	// Passes repeats the whole out-of-core sweep, regenerating border
	// vectors between passes.
	Passes int
	// Depth is the chunk-pipeline depth (default 1: double buffering of
	// whole chunks, which is what 2 GiB of staging admits at 8k blocking).
	Depth int
	// Streamed routes the chunk loads and stores — including the halo
	// (border) loads and the GPU staging moves on 3-level trees — through
	// the streaming transfer engine, sub-chunking each move so successive
	// hops overlap. Adaptive sizing degenerates to the monolithic path
	// when sub-chunking cannot help.
	Streamed bool
	// StreamOpts tunes the streamed moves (zero value = adaptive sizing).
	StreamOpts core.StreamOptions
	// Policy assigns chunks to the root's staging branches when it has
	// several (Figure 2's asymmetric tree); the zero value is DynamicQueue.
	Policy BranchPolicy
}

func (cfg *Config) setDefaults() error {
	if cfg.N <= 0 || cfg.N%BlockDim != 0 {
		return fmt.Errorf("hotspot: N=%d must be a positive multiple of %d", cfg.N, BlockDim)
	}
	if !cfg.Streamed && !cfg.StreamOpts.IsZero() {
		return fmt.Errorf("hotspot: Config.StreamOpts tunes streamed moves; set Config.Streamed or leave it zero")
	}
	if cfg.Policy != DynamicQueue && cfg.Policy != StaticPartition {
		return fmt.Errorf("hotspot: Policy=%d invalid (want DynamicQueue or StaticPartition)", cfg.Policy)
	}
	if cfg.ChunkDim < 0 {
		return fmt.Errorf("hotspot: ChunkDim=%d invalid (0 derives it from the staging capacity)", cfg.ChunkDim)
	}
	// Zero means the default; a negative value is refused, not read as it.
	for _, f := range []struct {
		name string
		v    *int
		def  int
	}{{"Iters", &cfg.Iters, 60}, {"Passes", &cfg.Passes, 1}, {"Depth", &cfg.Depth, 1}} {
		switch {
		case *f.v < 0:
			return fmt.Errorf("hotspot: %s=%d invalid (0 means the default, %d)", f.name, *f.v, f.def)
		case *f.v == 0:
			*f.v = f.def
		}
	}
	return nil
}

// Result carries the run's output and measurements.
type Result struct {
	// Temp is the final temperature grid (nil in phantom mode).
	Temp []float32
	// Stats is the measured run (excluding input preprocessing).
	Stats core.RunStats
	// ChunkDim is the blocking actually used.
	ChunkDim int
	// ChunksByBranch counts the chunks each staging branch of the root ran,
	// summed over passes (nil for the in-memory baseline).
	ChunksByBranch []int
}

// chooseChunkDim picks the largest chunk edge (multiple of BlockDim,
// dividing n) that cuts the grid into at least one chunk per branch and
// whose in/out/power buffers and borders fit depth+1 times into the free
// staging bytes.
func chooseChunkDim(n, depth, branches int, free int64) (int, error) {
	for d := n; d >= BlockDim; d -= BlockDim {
		if n%d != 0 || (n/d)*(n/d) < branches {
			continue
		}
		per := 4 * (3*int64(d)*int64(d) + 4*int64(d))
		if per*int64(depth+1) <= free*9/10 {
			return d, nil
		}
	}
	return 0, fmt.Errorf("hotspot: no chunk size fits %d free bytes and gives each of %d branches a chunk for N=%d",
		free, branches, n)
}

// borderOff returns the file offset of chunk ci's packed border record
// (four vectors of d floats: N, S, W, E; absent sides are zero-filled and
// identified by chunk position).
func borderOff(ci, d int) int64 { return int64(ci) * 4 * int64(d) * 4 }

// TileKernelFor builds the GPU kernel advancing blk by one Jacobi step.
// A nil blk gives the phantom (timing-only) kernel.
func TileKernelFor(blk *Block, d int) (gpu.Kernel, int) {
	tiles := (d + BlockDim - 1) / BlockDim
	groups := tiles * tiles
	kern := gpu.Kernel{
		Name:          "hotspot-tile",
		FlopsPerGroup: TileFlops,
		BytesPerGroup: TileBytes,
		LocalBytes:    TileLocalBytes,
	}
	if blk != nil {
		kern.Run = func(g int) { blk.StepTile(g/tiles, g%tiles) }
	}
	return kern, groups
}

// RunNorthup executes the thermal simulation's recursive schedule on the
// runtime's tree. On a memory root it is the recursion's leaf case, the
// in-memory baseline: Iters*Passes kernel launches over the whole resident
// grid. On a storage root it runs out of core per §IV-B: the grid lives
// chunk-major on the root (the one-time preprocessing), each pass pipelines
// chunks through the staging level, runs Iters stencil steps on the GPU
// with pass-start border vectors, writes results back, and regenerates the
// border file for the next pass from chunk edges. A root with several
// staging branches (Figure 2's asymmetric tree) spreads the chunks over all
// of them under cfg.Policy. The result is identical to the single-branch
// blocked execution whatever the policy or branch count; a branch that
// fails (a chunk it cannot stage, a missing processor) fails the run.
func RunNorthup(rt *core.Runtime, cfg Config) (*Result, error) {
	if rt.Tree().Root().Store == nil {
		return runInMemory(rt, cfg)
	}
	return runChunked(rt, cfg, launchSteps, false)
}

// runChunked is the shared out-of-core skeleton: preprocessing, the
// load / compute / store pipeline over chunks, border regeneration between
// passes, and result assembly. RunNorthup plugs in the kernel-launch
// step; RunSteal the queue-based CPU+GPU scheduler; RunProfiled the
// profile-guided processor choice.
//
// Every staging branch of the root runs one pipeline, which takes its
// chunks from Listing 1's root work queue whenever its staging frees up:
// one shared deque under DynamicQueue, one pre-filled deque per branch
// under StaticPartition (cfg.Policy). A single branch runs inline, with
// chunks in order. Result.ChunksByBranch counts the chunks each branch ran.
//
// Before anything is staged, every branch's compute leaf must have a GPU,
// and a CPU too when the step needs one.
func runChunked(rt *core.Runtime, cfg Config, step chunkStep, needCPU bool) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	root := rt.Tree().Root()
	if root.Store == nil {
		return nil, fmt.Errorf("hotspot: tree root %v is not storage", root)
	}
	branches := root.Children
	if len(branches) == 0 {
		return nil, fmt.Errorf("hotspot: no staging branches under the root")
	}
	for _, b := range branches {
		if err := checkLeaf(b, needCPU); err != nil {
			return nil, err
		}
	}
	n := cfg.N
	d := cfg.ChunkDim
	if d == 0 {
		// The smallest branch sizes the chunks every branch stages, and
		// there are enough of them to keep every branch busy.
		free := branches[0].Mem.Free()
		for _, b := range branches[1:] {
			free = min(free, b.Mem.Free())
		}
		var err error
		if d, err = chooseChunkDim(n, cfg.Depth, len(branches), free); err != nil {
			return nil, err
		}
	}
	if n%d != 0 || d%BlockDim != 0 {
		return nil, fmt.Errorf("hotspot: chunk %d invalid for N=%d", d, n)
	}
	p := newProblem(rt, cfg, d, step)
	chunks, chunkBytes, borderBytes := p.chunks, p.chunkBytes, p.borderBytes

	// Chunk-major temp and power files, plus the initial border file.
	temp, power, border := p.inputs()
	fT := [2]*core.Buffer{}
	var err error
	if fT[0], err = rt.CreateInput(root, "hs-temp-0", p.gridBytes, temp); err != nil {
		return nil, err
	}
	if fT[1], err = rt.CreateInput(root, "hs-temp-1", p.gridBytes, nil); err != nil {
		return nil, err
	}
	fP, err := rt.CreateInput(root, "hs-power", p.gridBytes, power)
	if err != nil {
		return nil, err
	}
	fB := [2]*core.Buffer{}
	if fB[0], err = rt.CreateInput(root, "hs-border-0", int64(chunks)*borderBytes, border); err != nil {
		return nil, err
	}
	if fB[1], err = rt.CreateInput(root, "hs-border-1", int64(chunks)*borderBytes, nil); err != nil {
		return nil, err
	}

	// slots[bi*chunks+i] is what branch bi's pipeline item i staged: a
	// chunk and its buffers, or chunk -1 once the branch's queue ran dry.
	type slot struct {
		chunkBufs
		ci int
	}
	slots := make([]slot, len(branches)*chunks)
	byBranch := make([]int, len(branches))

	stats, err := rt.Run("hotspot-northup", func(c *core.Ctx) error {
		for pass := 0; pass < cfg.Passes; pass++ {
			src, dst := fT[pass%2], fT[(pass+1)%2]
			bSrc, bDst := fB[pass%2], fB[(pass+1)%2]
			queues := rootQueues(chunks, len(branches), cfg.Policy)
			detach := root.AttachQueues(queues...)
			// A branch prefetches its next chunk only from a queue it owns:
			// the head of a shared queue may go to another branch.
			owned := len(queues) == len(branches)
			branch := func(c *core.Ctx, bi int) error {
				dram, q := branches[bi], queues[bi%len(queues)].(*sched.Deque[int])
				mine := slots[bi*chunks : (bi+1)*chunks]
				// Stage bodies run as named task spans: a traced pass shows the
				// load lane running ahead of compute-store (Fig. 5's overlap).
				return c.Pipeline(chunks, cfg.Depth,
					func(sub *core.Ctx, i int) error { // load chunk + borders
						ci, ok := q.StealHead()
						if !ok {
							mine[i].ci = -1
							return nil
						}
						byBranch[bi]++
						return sub.Task("load-chunk", chunkBytes, func(sub *core.Ctx) error {
							var s chunkBufs
							var err error
							if s.tin, err = sub.AllocAt(dram, chunkBytes); err != nil {
								return err
							}
							if s.tout, err = sub.AllocAt(dram, chunkBytes); err != nil {
								return err
							}
							// Power never changes across iterations or passes, so
							// its chunks come through the staging cache: pass 2+
							// re-reads hit instead of going back to storage. The
							// temperature and border files are rewritten every pass
							// and must not be cached.
							if s.pow, err = sub.MoveDataDownCached(dram, fP, int64(ci)*chunkBytes, chunkBytes); err != nil {
								return err
							}
							if next, ok := q.PeekHead(); ok && owned {
								sub.Prefetch(dram, fP, int64(next)*chunkBytes, chunkBytes)
							}
							if s.bord, err = sub.AllocAt(dram, borderBytes); err != nil {
								return err
							}
							mine[i] = slot{s, ci}
							if err := p.moveDown(sub, s.tin, src, 0, int64(ci)*chunkBytes, chunkBytes); err != nil {
								return err
							}
							return p.moveDown(sub, s.bord, bSrc, 0, borderOff(ci, d), borderBytes)
						})
					},
					func(sub *core.Ctx, i int) error { // compute at the leaf, then store
						s, ci := mine[i].chunkBufs, mine[i].ci
						if ci < 0 {
							return nil
						}
						return sub.Task("compute-store", chunkBytes, func(sub *core.Ctx) error {
							err := sub.Descend(dram, func(dc *core.Ctx) error {
								return p.computeChunk(dc, s, ci)
							})
							if err != nil {
								return err
							}
							// Store the chunk and the borders its neighbours will
							// read next pass. Keeping store in the compute stage
							// bounds in-flight chunks to depth+1, which is what a
							// 2 GiB staging buffer admits at the paper's 8k
							// blocking.
							if err := p.moveUp(sub, dst, s.tin, int64(ci)*chunkBytes, 0, chunkBytes); err != nil {
								return err
							}
							if err := writeNeighborBorders(sub, bDst, s.tin, d, p.cb, ci); err != nil {
								return err
							}
							sub.Release(s.tin)
							sub.Release(s.tout)
							sub.Unpin(s.pow)
							sub.Release(s.bord)
							mine[i] = slot{}
							return nil
						})
					},
				)
			}
			var err error
			if len(branches) == 1 {
				err = branch(c, 0)
			} else {
				err = c.ParallelFor(len(branches), len(branches), branch)
			}
			detach()
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Stats: stats, ChunkDim: d, ChunksByBranch: byBranch}
	if p.functional {
		if res.Temp, err = p.readBack(fT[cfg.Passes%2]); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// rootQueues fills one pass's root work queue, as the node monitors the
// root carries: a single deque of every chunk under DynamicQueue, or under
// StaticPartition one deque per branch, with the chunks dealt round-robin.
func rootQueues(chunks, branches int, policy BranchPolicy) []sched.Monitor {
	if policy == DynamicQueue {
		branches = 1
	}
	queues := make([]sched.Monitor, branches)
	for i := range queues {
		q := sched.NewDeque[int]("root-chunks")
		for ci := i; ci < chunks; ci += branches {
			q.PushTail(ci)
		}
		queues[i] = q
	}
	return queues
}

// writeNeighborBorders packs the result chunk's edge rows/columns and
// writes them into the border records its four neighbors will read next
// pass. Column edges are gathered into compact vectors first — the §IV-B
// fix for non-contiguous east/west borders.
func writeNeighborBorders(sub *core.Ctx, bDst *core.Buffer, tin *core.Buffer, d, cb, ci int) error {
	bi, bj := ci/cb, ci%cb
	rowBytes := int64(d) * 4
	functional := !sub.Runtime().Phantom()

	// South neighbor's NORTH border = our bottom row (contiguous).
	if bi+1 < cb {
		off := borderOff((bi+1)*cb+bj, d) + 0
		if err := sub.MoveData(bDst, tin, off, int64(d-1)*rowBytes, rowBytes); err != nil {
			return err
		}
	}
	// North neighbor's SOUTH border = our top row (contiguous).
	if bi > 0 {
		off := borderOff((bi-1)*cb+bj, d) + rowBytes
		if err := sub.MoveData(bDst, tin, off, 0, rowBytes); err != nil {
			return err
		}
	}
	// East neighbor's WEST border = our rightmost column (strided; pack it).
	if bj+1 < cb {
		if err := writePackedColumn(sub, bDst, tin, d, functional,
			d-1, borderOff(bi*cb+bj+1, d)+2*rowBytes); err != nil {
			return err
		}
	}
	// West neighbor's EAST border = our leftmost column.
	if bj > 0 {
		if err := writePackedColumn(sub, bDst, tin, d, functional,
			0, borderOff(bi*cb+bj-1, d)+3*rowBytes); err != nil {
			return err
		}
	}
	return nil
}

// writePackedColumn gathers column col of the d x d chunk in tin into a
// compact staging vector (a strided 2-D move, charged as such) and writes
// the packed vector to the border file at fileOff.
func writePackedColumn(sub *core.Ctx, bDst, tin *core.Buffer, d int, functional bool, col int, fileOff int64) error {
	vec, err := sub.AllocAt(tin.Node(), int64(d)*4)
	if err != nil {
		return err
	}
	defer sub.Release(vec)
	if err := sub.MoveData2D(vec, tin, 0, 4, int64(col)*4, int64(d)*4, d, 4); err != nil {
		return err
	}
	return sub.MoveData(bDst, vec, fileOff, 0, int64(d)*4)
}

// packAllBorders builds the initial border file content from the row-major
// grid: for each chunk, four d-vectors (N, S, W, E), zeros where the chunk
// touches the grid edge.
func packAllBorders(temp []float32, n, d int) []float32 {
	cb := n / d
	out := make([]float32, cb*cb*4*d)
	for bi := 0; bi < cb; bi++ {
		for bj := 0; bj < cb; bj++ {
			ci := bi*cb + bj
			base := ci * 4 * d
			i0, j0 := bi*d, bj*d
			if i0 > 0 {
				copy(out[base:base+d], temp[(i0-1)*n+j0:(i0-1)*n+j0+d])
			}
			if i0+d < n {
				copy(out[base+d:base+2*d], temp[(i0+d)*n+j0:(i0+d)*n+j0+d])
			}
			if j0 > 0 {
				for r := 0; r < d; r++ {
					out[base+2*d+r] = temp[(i0+r)*n+j0-1]
				}
			}
			if j0+d < n {
				for r := 0; r < d; r++ {
					out[base+3*d+r] = temp[(i0+r)*n+j0+d]
				}
			}
		}
	}
	return out
}

// unpackBorders builds a Borders view over a chunk's border buffer,
// nil-ing the sides where chunk ci touches the grid edge.
func unpackBorders(b []float32, d, cb, ci int) Borders {
	bi, bj := ci/cb, ci%cb
	var out Borders
	if bi > 0 {
		out.North = b[0:d]
	}
	if bi+1 < cb {
		out.South = b[d : 2*d]
	}
	if bj > 0 {
		out.West = b[2*d : 3*d]
	}
	if bj+1 < cb {
		out.East = b[3*d : 4*d]
	}
	return out
}

// runInMemory executes the in-memory baseline: the whole grid resident in
// DRAM, Iters*Passes kernel launches, no I/O in the measured region. It
// refuses the out-of-core fields, which it would ignore, before
// setDefaults fills Depth.
func runInMemory(rt *core.Runtime, cfg Config) (*Result, error) {
	for _, f := range []struct {
		name string
		set  bool
	}{{"ChunkDim", cfg.ChunkDim != 0}, {"Depth", cfg.Depth != 0}, {"Streamed", cfg.Streamed},
		{"Policy", cfg.Policy != DynamicQueue}} {
		if f.set {
			return nil, fmt.Errorf("hotspot: the in-memory baseline on memory root %v does not read Config.%s",
				rt.Tree().Root(), f.name)
		}
	}
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	n := cfg.N
	gridBytes := int64(n) * int64(n) * 4
	functional := !rt.Phantom()

	var res *Result
	stats, err := rt.Run("hotspot-inmemory", func(c *core.Ctx) error {
		var bufs [3]*core.Buffer
		if err := c.SetupBuffers(c.Node(), bufs[:], gridBytes, gridBytes, gridBytes); err != nil {
			return err
		}
		tin, tout, pow := bufs[0], bufs[1], bufs[2]
		var blk *Block
		if functional {
			grid := workload.HotSpotGrid(n, cfg.Seed)
			blk = &Block{D: n, In: view.F32(tin.Bytes()), Out: view.F32(tout.Bytes()),
				Power: view.F32(pow.Bytes())}
			copy(blk.In, grid.Temp)
			copy(blk.Power, grid.Power)
		}
		if err := launchSteps(c, blk, n, cfg.Iters*cfg.Passes); err != nil {
			return err
		}
		res = &Result{ChunkDim: n}
		if functional {
			res.Temp = append([]float32(nil), blk.In...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}
