package core

import (
	"math"
	"math/big"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Sizes of the two DRAM buffers the range tests move between.
const (
	rangeDstSize = 4096
	rangeSrcSize = 3000
)

// rangeMove is one move between the range tests' DRAM buffers, or from
// their storage file at the root.
type rangeMove func(c *Ctx, dst, src, file *Buffer) error

// runRangeMove runs move on a fresh APU tree between a rangeDstSize and a
// rangeSrcSize DRAM buffer, with a rangeDstSize file at the root. It
// returns the move's error and whether the move charged anything: advanced
// the clock or the breakdown.
func runRangeMove(t *testing.T, phantom bool, move rangeMove) (moveErr error, charged bool) {
	t.Helper()
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 16, DRAMMiB: 1})
	opts := DefaultOptions()
	opts.Phantom = phantom
	opts.Cache = CacheOptions{Enabled: true, Prefetch: true}
	rt := NewRuntime(e, tree, opts)
	_, err := rt.Run("range", func(c *Ctx) error {
		dram := tree.Node(1)
		dst, err := c.AllocAt(dram, rangeDstSize)
		if err != nil {
			return err
		}
		src, err := c.AllocAt(dram, rangeSrcSize)
		if err != nil {
			return err
		}
		file, err := c.AllocAt(tree.Root(), rangeDstSize)
		if err != nil {
			return err
		}
		at, bd := c.Proc().Now(), *rt.Breakdown()
		moveErr = move(c, dst, src, file)
		charged = c.Proc().Now() != at || *rt.Breakdown() != bd
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return moveErr, charged
}

// TestMoveRangeOverflowRefused runs moves whose ranges overflow int64 once
// added or multiplied out: each must fail, naming the argument, and charge
// nothing, in functional mode (where a wrapped range panicked slicing the
// buffer) and in phantom mode (where it was accepted). A cached fetch of
// such a range is refused too, after a prefetch of it did nothing.
func TestMoveRangeOverflowRefused(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		move       rangeMove
	}{
		{"offsets", "srcOff=4611686018427387904", func(c *Ctx, dst, src, _ *Buffer) error {
			return c.MoveData(dst, src, 1<<62, 1<<62, 1<<62)
		}},
		{"transpose", "rows=2147483648 x cols=2147483648", func(c *Ctx, dst, src, _ *Buffer) error {
			return c.MoveDataTransposeF32(dst, src, 0, 0, 1<<31, 1<<31)
		}},
		{"stride", "dstStride=4611686018427387904", func(c *Ctx, dst, src, _ *Buffer) error {
			return c.MoveData2D(dst, src, 0, 1<<62, 0, 0, 5, 16)
		}},
		{"rows", "rows=4611686018427387904 x rowBytes=16", func(c *Ctx, dst, src, _ *Buffer) error {
			return c.MoveData2D(dst, src, 0, 0, 0, 0, 1<<62, 16)
		}},
		{"cached", "srcOff=4611686018427387904", func(c *Ctx, _, _, file *Buffer) error {
			c.Prefetch(c.Children()[0], file, 1<<62, 1<<62)
			_, err := c.MoveDataDownCached(c.Children()[0], file, 1<<62, 1<<62)
			return err
		}},
	} {
		for _, phantom := range []bool{false, true} {
			err, charged := runRangeMove(t, phantom, tc.move)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s phantom=%v: err = %v, want a refusal naming %s", tc.name, phantom, err, tc.want)
			}
			if charged {
				t.Errorf("%s phantom=%v: refused move charged the run", tc.name, phantom)
			}
		}
	}
}

// rangeFits is the overflow-free oracle: whether a block of rows rows of
// row bytes, stride bytes apart from off, lies inside a buffer of size
// bytes.
func rangeFits(off, stride, rows, row, size int64) bool {
	if off < 0 {
		return false
	}
	end := new(big.Int).Mul(big.NewInt(rows-1), big.NewInt(stride))
	end.Add(end, big.NewInt(off))
	end.Add(end, big.NewInt(row))
	return end.Cmp(big.NewInt(size)) <= 0
}

// FuzzMoveRanges drives the three blocking moves with arbitrary offsets,
// lengths, strides, rows and dims between two small DRAM buffers, in
// functional and in phantom mode. A move must fail exactly when the
// math/big oracle puts a row outside a buffer or its byte count past
// int64, it must never panic, and a refused move charges nothing.
func FuzzMoveRanges(f *testing.F) {
	f.Add(uint8(0), int64(1<<62), int64(1<<62), int64(1<<62), int64(0), int64(0), 0, 0)
	f.Add(uint8(1), int64(0), int64(0), int64(0), int64(1<<62), int64(0), 5, 16)
	f.Add(uint8(2), int64(0), int64(0), int64(0), int64(0), int64(0), 1<<31, 1<<31)
	f.Add(uint8(4), int64(64), int64(32), int64(0), int64(100), int64(90), 20, 80)
	f.Add(uint8(5), int64(4), int64(8), int64(0), int64(0), int64(0), 30, 24)
	f.Fuzz(func(t *testing.T, shape uint8, dstOff, srcOff, n, dstStride, srcStride int64, rows, cols int) {
		var want bool // the move succeeds
		var move rangeMove
		cells := new(big.Int).Mul(big.NewInt(int64(rows)), big.NewInt(int64(cols)))
		switch shape % 3 {
		case 0:
			want = n >= 0 && rangeFits(dstOff, 0, 1, n, rangeDstSize) && rangeFits(srcOff, 0, 1, n, rangeSrcSize)
			move = func(c *Ctx, dst, src, _ *Buffer) error { return c.MoveData(dst, src, dstOff, srcOff, n) }
		case 1:
			r, row := int64(rows), int64(cols)
			switch {
			case rows < 0 || cols < 0:
			case rows == 0 || cols == 0:
				want = true
			default:
				want = dstStride >= 0 && srcStride >= 0 && cells.IsInt64() &&
					rangeFits(dstOff, dstStride, r, row, rangeDstSize) &&
					rangeFits(srcOff, srcStride, r, row, rangeSrcSize)
			}
			if want && cells.Int64() > 1<<20 {
				t.Skip("copies too many overlapping rows to run in a fuzz iteration")
			}
			move = func(c *Ctx, dst, src, _ *Buffer) error {
				return c.MoveData2D(dst, src, dstOff, dstStride, srcOff, srcStride, rows, cols)
			}
		default:
			total := new(big.Int).Mul(cells, big.NewInt(4))
			if rows > 0 && cols > 0 && total.Cmp(big.NewInt(math.MaxInt64)) <= 0 {
				b := total.Int64()
				want = rangeFits(dstOff, 0, 1, b, rangeDstSize) && rangeFits(srcOff, 0, 1, b, rangeSrcSize)
			}
			move = func(c *Ctx, dst, src, _ *Buffer) error {
				return c.MoveDataTransposeF32(dst, src, dstOff, srcOff, rows, cols)
			}
		}
		phantom := shape/3%2 == 1
		err, charged := runRangeMove(t, phantom, move)
		if (err == nil) != want {
			t.Fatalf("phantom=%v: err = %v, oracle says the move fits: %v", phantom, err, want)
		}
		if err != nil && charged {
			t.Fatalf("phantom=%v: refused move (%v) charged the run", phantom, err)
		}
	})
}
