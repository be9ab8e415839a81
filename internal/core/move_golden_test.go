package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
)

// blockingMoveCase is one shape of blocking move run against one pair of
// endpoint kinds: a run of blockingMoves moves of that shape at varying
// offsets between one source and one destination buffer.
type blockingMoveCase struct {
	name     string
	src, dst string                                      // endpoint kinds: "file", "dram" or "gpu"
	move     func(c *Ctx, dst, src *Buffer, i int) error // the run's i-th move
	want     string
}

const (
	blockingMoves = 8
	blockingSize  = 256 << 10 // bytes in every endpoint buffer
)

// blockingMoveCases builds the table: MoveData between every pair of
// endpoint kinds a tree path joins, MoveData2D strided on both sides
// through each branch of Listing 4 plus a one-row block on the PCIe link,
// and MoveDataTransposeF32 on the two memory links.
func blockingMoveCases() []blockingMoveCase {
	move := func(c *Ctx, dst, src *Buffer, i int) error {
		const piece = blockingSize / blockingMoves
		n := int64(piece - 512*i)
		return c.MoveData(dst, src, int64(blockingMoves-1-i)*piece, int64(i)*piece+int64(i), n)
	}
	const srcStride, dstStride, rows, rowBytes = 4160, 2080, 8, 1000
	move2D := func(c *Ctx, dst, src *Buffer, i int) error {
		return c.MoveData2D(dst, src, int64(3*i)*dstStride+int64(blockingMoves-1-i)*64, dstStride,
			int64(3*i)*srcStride+int64(i)*40, srcStride, rows, rowBytes)
	}
	oneRow := func(c *Ctx, dst, src *Buffer, i int) error {
		return c.MoveData2D(dst, src, int64(i)*9000, 0, int64(i)*7000+int64(i), 2*rowBytes, 1, 4*rowBytes+i)
	}
	transpose := func(c *Ctx, dst, src *Buffer, i int) error {
		return c.MoveDataTransposeF32(dst, src, int64(blockingMoves-1-i)*8192+4*int64(i), int64(i)*8192, 40+i, 48-i)
	}
	return []blockingMoveCase{
		{name: "move/file->dram", src: "file", dst: "dram", move: move,
			want: "elapsed=9782289 busy=[0 0 0 0 2000 0 491289 289000] cache=0/0/0/0 stream=0/0/0/0/0/0 res=12/7/3/0/5 inj=9/3/0/0 events=35 trace=13c7c5ce49040fc4 failed=5 errs=ca6053729c6dc075 payload=c2cce82d1c643966"},
		{name: "move/dram->file", src: "dram", dst: "file", move: move,
			want: "elapsed=22145432 busy=[0 0 0 0 8000 0 876432 261000] cache=0/3/0/3 stream=0/0/0/0/0/0 res=10/6/1/0/4 inj=9/7/0/0 events=55 trace=10325ddd68d2cb69 failed=4 errs=c233ef6e0c02c898 payload=58c7e26b97dc5253"},
		{name: "move/file->file", src: "file", dst: "file", move: move,
			want: "elapsed=10838943 busy=[0 0 0 0 10000 0 1482943 346000] cache=0/5/0/3 stream=0/0/0/0/0/0 res=12/8/0/0/4 inj=12/3/0/0 events=68 trace=6da5036e96f6f0a5 failed=2 errs=c0422ba15a906bd3 payload=b9b05f59d9824eee"},
		{name: "move/dram->dram", src: "dram", dst: "dram", move: move,
			want: "elapsed=110387 busy=[0 0 0 0 4000 16387 0 90000] cache=0/0/0/0 stream=0/0/0/0/0/0 res=2/2/0/0/0 inj=2/0/0/0 events=24 trace=0846271b35b980e6 failed=0 errs=cbf29ce484222325 payload=db2d1c814c8f3b01"},
		{name: "move/dram->gpu", src: "dram", dst: "gpu", move: move,
			want: "elapsed=15262648 busy=[0 0 0 0 32000 100648 0 130000] cache=0/0/0/0 stream=0/0/0/0/0/0 res=5/3/2/0/2 inj=3/5/0/0 events=28 trace=0b2bcbd0764f243c failed=2 errs=7ca0d326f6d71b84 payload=db2d1c814c8f3b01"},
		{name: "move/file->gpu", src: "file", dst: "gpu", move: move,
			want: "elapsed=13010335 busy=[0 0 0 0 30000 0 851335 129000] cache=0/0/0/0 stream=0/0/0/0/0/0 res=6/3/4/0/3 inj=2/4/0/0 events=28 trace=42b8b00670f92d0f failed=3 errs=301a2380184afcaf payload=0bee74d7cda0f7dc"},
		{name: "move/gpu->file", src: "gpu", dst: "file", move: move,
			want: "elapsed=10693955 busy=[0 0 0 0 36000 0 1436955 221000] cache=0/3/0/3 stream=0/0/0/0/0/0 res=7/5/3/0/2 inj=4/3/0/0 events=55 trace=bb39597bc5c28749 failed=2 errs=c4d016e362e85c17 payload=db2d1c814c8f3b01"},
		{name: "move2d/file->dram", src: "file", dst: "dram", move: move2D,
			want: "elapsed=15165272 busy=[0 0 0 0 2000 0 2914272 249000] cache=0/0/0/0 stream=0/0/0/0/0/0 res=11/6/3/0/5 inj=8/4/0/0 events=33 trace=330d51a24a107461 failed=5 errs=cc00211b05c9e396 payload=4150acf19453953d"},
		{name: "move2d/dram->file", src: "dram", dst: "file", move: move2D,
			want: "elapsed=19842679 busy=[0 0 0 0 14000 0 4480679 348000] cache=0/6/0/1 stream=0/0/0/0/0/0 res=12/8/3/0/4 inj=9/5/0/0 events=75 trace=fb8addf2c0245b02 failed=1 errs=f14687c1812ca3ed payload=65689bc7f6fe13b5"},
		{name: "move2d/file->file", src: "file", dst: "file", move: move2D,
			want: "elapsed=19624524 busy=[0 0 0 0 6000 0 7280524 338000] cache=0/3/0/1 stream=0/0/0/0/0/0 res=11/8/3/0/3 inj=8/4/0/0 events=55 trace=6925017ebd0cb35d failed=3 errs=e888988670da0cfb payload=1efb34b532755d9d"},
		{name: "move2d/dram->dram", src: "dram", dst: "dram", move: move2D,
			want: "elapsed=105900 busy=[0 0 0 0 4000 11900 0 90000] cache=0/0/0/0 stream=0/0/0/0/0/0 res=3/2/0/0/1 inj=3/0/0/0 events=24 trace=51d397db69e698ed failed=1 errs=9fed6cb30c64ee05 payload=1efb34b532755d9d"},
		{name: "move2d/one-row-dram->gpu", src: "dram", dst: "gpu", move: oneRow,
			want: "elapsed=6326264 busy=[0 0 0 0 32000 84264 0 210000] cache=0/0/0/0 stream=0/0/0/0/0/0 res=6/5/1/0/1 inj=5/2/0/0 events=31 trace=e744c80ee1db54cf failed=1 errs=b8e4ef1d0ab918dc payload=f2fc505c8e89adc0"},
		{name: "transpose/dram->dram", src: "dram", dst: "dram", move: transpose,
			want: "elapsed=18224978 busy=[0 0 0 0 4000 10978 0 210000] cache=0/0/0/0 stream=0/0/0/0/0/0 res=9/5/4/0/4 inj=5/6/0/0 events=34 trace=3c6e96ba7eccb5ec failed=4 errs=73271d9f9649a638 payload=89fc2a69711594e5"},
		{name: "transpose/dram->gpu", src: "dram", dst: "gpu", move: transpose,
			want: "elapsed=15336331 busy=[0 0 0 0 32000 54331 0 250000] cache=0/0/0/0 stream=0/0/0/0/0/0 res=11/6/2/0/5 inj=9/5/0/0 events=34 trace=38f5ab7391525ab5 failed=5 errs=9258a8beeec0a216 payload=ae9de3f9dc4e5d75"},
	}
}

// blockingEndpoint makes a buffer of kind on the discrete tree, holding
// fill's pattern: an input file at the root, or memory at the DRAM level
// or in GPU memory.
func blockingEndpoint(c *Ctx, kind, name string, fill byte) (*Buffer, error) {
	data := make([]byte, blockingSize)
	for i := range data {
		data[i] = byte(i*7+i>>9) ^ fill
	}
	if kind == "file" {
		return c.rt.CreateInput(c.rt.tree.Root(), name, blockingSize, data)
	}
	node := c.rt.tree.Root().Children[0]
	if kind == "gpu" {
		node = gpuLeaf(c.rt)
	}
	b, err := c.AllocAt(node, blockingSize)
	if err == nil {
		copy(b.Bytes(), data)
	}
	return b, err
}

// cacheCopies caches three unpinned copies of pieces of the file f in
// DRAM, so the moves that write over them invalidate them. A fill the
// injector defeats is fetched again: the copies exist before any move.
func cacheCopies(c *Ctx, f *Buffer) error {
	dram := c.rt.tree.Root().Children[0]
	for i := int64(0); i < 3; i++ {
		b, err := c.MoveDataDownCached(dram, f, i*(blockingSize/3), blockingSize/4)
		for err != nil && fault.IsTransient(err) {
			b, err = c.MoveDataDownCached(dram, f, i*(blockingSize/3), blockingSize/4)
		}
		if err != nil {
			return err
		}
		if err := c.Unpin(b); err != nil {
			return err
		}
	}
	return nil
}

// runBlockingMove runs one case and renders what it pins: everything
// runGoldenStream pins, then the run's failed moves with a digest of
// their errors, and a digest of the destination's bytes.
func runBlockingMove(t *testing.T, tc blockingMoveCase, seed int64) string {
	t.Helper()
	var failed int
	var errs, payload uint64
	golden := goldenStreamCase{
		name:     tc.name,
		discrete: true,
		// Each delay overruns the deadline, so a delayed attempt times out.
		faults: &fault.Config{Seed: seed, TransferFailRate: 0.4, TransferDelayRate: 0.3,
			TransferDelay: sim.Milliseconds(3)},
		retry: RetryPolicy{MaxRetries: 1, BaseBackoff: sim.Microseconds(40),
			MaxBackoff: sim.Milliseconds(1), OpTimeout: sim.Milliseconds(2)},
		cache: true,
		body: func(c *Ctx) error {
			src, err := blockingEndpoint(c, tc.src, "src", 0)
			if err != nil {
				return err
			}
			dst, err := blockingEndpoint(c, tc.dst, "dst", 0x5a)
			if err != nil {
				return err
			}
			if dst.file != nil {
				if err := cacheCopies(c, dst); err != nil {
					return err
				}
			}
			h := fnv.New64a()
			for i := 0; i < blockingMoves; i++ {
				if err := tc.move(c, dst, src, i); err != nil {
					failed++
					fmt.Fprintf(h, "%d: %v\n", i, err)
				}
			}
			errs = h.Sum64()
			if dst.file != nil {
				payload, err = dst.file.Hash()
				return err
			}
			h = fnv.New64a()
			h.Write(dst.Bytes())
			payload = h.Sum64()
			return nil
		},
	}
	return fmt.Sprintf("%s failed=%d errs=%016x payload=%016x",
		runGoldenStream(t, golden), failed, errs, payload)
}

// TestBlockingMoveGolden pins every observable of the blocking moves —
// timing, breakdown, cache invalidations, resilience counters, fault
// draws, the event stream in order, each move's error and the bytes that
// land — for each shape against each endpoint kind on the discrete tree,
// functional, under injected failures and delays, a deadline that trips,
// and the staging cache holding copies of a file destination.
func TestBlockingMoveGolden(t *testing.T) {
	for i, tc := range blockingMoveCases() {
		t.Run(tc.name, func(t *testing.T) {
			if got := runBlockingMove(t, tc, int64(i)); got != tc.want {
				t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
			}
		})
	}
}
