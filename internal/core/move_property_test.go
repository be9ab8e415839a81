package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topo"
)

// TestMoveRoundTripAcrossKindsProperty drives random payloads at random
// offsets through every node kind of the 3-level tree — DRAM -> storage ->
// DRAM -> GPU memory -> DRAM — and demands bit-exact survival. This is the
// unified interface's core contract: the opaque handle behaves identically
// no matter which memories back it.
func TestMoveRoundTripAcrossKindsProperty(t *testing.T) {
	f := func(payload []byte, offRaw uint8) bool {
		if len(payload) == 0 {
			return true
		}
		e := sim.NewEngine()
		tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
			StorageMiB: 4, DRAMMiB: 2, GPUMemMiB: 2})
		rt := NewRuntime(e, tree, DefaultOptions())
		root, dram, gmem := tree.Node(0), tree.Node(1), tree.Node(2)
		off := int64(offRaw)
		size := int64(len(payload)) + off + 1
		ok := true
		_, err := rt.Run("prop", func(c *Ctx) error {
			stage, err := c.AllocAt(dram, size)
			if err != nil {
				return err
			}
			disk, err := c.AllocAt(root, size)
			if err != nil {
				return err
			}
			dev, err := c.AllocAt(gmem, size)
			if err != nil {
				return err
			}
			back, err := c.AllocAt(dram, size)
			if err != nil {
				return err
			}
			copy(stage.Bytes()[off:], payload)
			n := int64(len(payload))
			if err := c.MoveData(disk, stage, off, off, n); err != nil {
				return err
			}
			if err := c.MoveData(back, disk, off, off, n); err != nil {
				return err
			}
			if err := c.MoveData(dev, back, off, off, n); err != nil {
				return err
			}
			// Clear and pull back from the GPU.
			for i := range back.Bytes() {
				back.Bytes()[i] = 0
			}
			if err := c.MoveData(back, dev, off, off, n); err != nil {
				return err
			}
			ok = bytes.Equal(back.Bytes()[off:off+n], payload)
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMove2DRandomRectangles round-trips random sub-rectangles between a
// host buffer and a storage buffer with independent strides.
func TestMove2DRandomRectangles(t *testing.T) {
	f := func(seed []byte, rRaw, cRaw, strideRaw uint8) bool {
		rows := int(rRaw%6) + 1
		rowBytes := int(cRaw%24) + 1
		extra := int64(strideRaw % 32)
		srcStride := int64(rowBytes) + extra
		if len(seed) == 0 {
			seed = []byte{42}
		}
		e := sim.NewEngine()
		tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 4, DRAMMiB: 1})
		rt := NewRuntime(e, tree, DefaultOptions())
		root, dram := tree.Node(0), tree.Node(1)
		hostSize := srcStride * int64(rows)
		ok := true
		_, err := rt.Run("rect", func(c *Ctx) error {
			host, err := c.AllocAt(dram, hostSize)
			if err != nil {
				return err
			}
			for i := range host.Bytes() {
				host.Bytes()[i] = seed[i%len(seed)]
			}
			disk, err := c.AllocAt(root, int64(rows*rowBytes))
			if err != nil {
				return err
			}
			// Strided host -> packed storage.
			if err := c.MoveData2D(disk, host, 0, int64(rowBytes), 0, srcStride, rows, rowBytes); err != nil {
				return err
			}
			// Packed storage -> strided host copy 2.
			host2, err := c.AllocAt(dram, hostSize)
			if err != nil {
				return err
			}
			if err := c.MoveData2D(host2, disk, 0, srcStride, 0, int64(rowBytes), rows, rowBytes); err != nil {
				return err
			}
			for r := 0; r < rows; r++ {
				a := host.Bytes()[int64(r)*srcStride : int64(r)*srcStride+int64(rowBytes)]
				b := host2.Bytes()[int64(r)*srcStride : int64(r)*srcStride+int64(rowBytes)]
				if !bytes.Equal(a, b) {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBlockingMove times one blocking move of each shape from one
// proc on the phantom discrete tree, so it measures the runtime's own cost
// per move — checks, bookkeeping, the Listing 4 dispatch, device and link
// charges — not payload copies: 1-D file to DRAM and DRAM to GPU memory,
// a strided 2-D block in DRAM, and a transposing DRAM to DRAM move.
func BenchmarkBlockingMove(b *testing.B) {
	const n = 1 << 20
	const rows, row = 64, 8 << 10
	for _, bc := range []struct {
		name     string
		src, dst func(rt *Runtime) *topo.Node
		move     func(c *Ctx, dst, src *Buffer) error
	}{
		{"file-dram", rootNode, dramNode, func(c *Ctx, dst, src *Buffer) error {
			return c.MoveData(dst, src, 0, 0, n)
		}},
		{"dram-gpu", dramNode, gpuLeaf, func(c *Ctx, dst, src *Buffer) error {
			return c.MoveData(dst, src, 0, 0, n)
		}},
		{"strided-2d", dramNode, dramNode, func(c *Ctx, dst, src *Buffer) error {
			return c.MoveData2D(dst, src, 0, row, 0, 2*row, rows, row)
		}},
		{"transpose", dramNode, dramNode, func(c *Ctx, dst, src *Buffer) error {
			return c.MoveDataTransposeF32(dst, src, 0, 0, 512, 512)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := sim.NewEngine()
			tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
				StorageMiB: 64, DRAMMiB: 64, GPUMemMiB: 32})
			opts := DefaultOptions()
			opts.Phantom = true
			rt := NewRuntime(e, tree, opts)
			b.ReportAllocs()
			_, err := rt.Run("bench", func(c *Ctx) error {
				src, err := c.AllocAt(bc.src(rt), n)
				if err != nil {
					return err
				}
				dst, err := c.AllocAt(bc.dst(rt), n)
				if err != nil {
					return err
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := bc.move(c, dst, src); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func rootNode(rt *Runtime) *topo.Node { return rt.tree.Root() }
func dramNode(rt *Runtime) *topo.Node { return rt.tree.Root().Children[0] }
