package core

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// This file implements the paper's §VI "Data Layout" extension: "when data
// migrates across memory levels, chunks can be transformed and stored in
// different formats ... Northup can be easily extended to support this with
// a special version of move_data()."
//
// MoveDataTransposeF32 is that special version for the most common case:
// a row-major float32 matrix block becomes column-major (or vice versa) as
// it moves. The transform itself costs one extra read+write pass over the
// block at the destination device's bandwidth, on top of the normal
// transfer — the first-order cost of a blocked transpose performed at the
// destination.

// MoveDataTransposeF32 moves a rows x cols float32 matrix from src (at
// srcOff bytes, row-major) to dst (at dstOff bytes), storing it transposed
// (cols x rows, row-major — i.e. column-major layout of the original).
// Both buffers must live on memory-kind nodes.
func (rt *Runtime) MoveDataTransposeF32(p *sim.Proc, dst, src *Buffer, dstOff, srcOff int64, rows, cols int) error {
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("core: transforming move of %dx%d block", rows, cols)
	}
	if int64(rows) > math.MaxInt64/4/int64(cols) {
		return fmt.Errorf("core: transforming move of rows=%d x cols=%d float32s overflows int64 bytes", rows, cols)
	}
	n := int64(rows) * int64(cols) * 4
	if err := checkMove(dst, src, dstOff, srcOff, n); err != nil {
		return err
	}
	if src.file != nil || dst.file != nil {
		return fmt.Errorf("core: transforming move requires memory endpoints (got %v -> %v)",
			src.node, dst.node)
	}
	b := flat(n, "move_data_transpose", spanTranspose)
	b.tRows, b.tCols = rows, cols
	return rt.move(p, dst, src, dstOff, srcOff, b)
}
