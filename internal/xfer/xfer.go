// Package xfer provides the functional data-movement primitives under
// Northup's unified move_data interface: strided 2-D block copies (the
// dCopyBlockH2D/D2H operations of the paper's Listing 2) and layout
// transformation (paper §VI "Data Layout").
//
// These are pure host-side byte manipulations; virtual-time charging is done
// by the runtime (package core) against the device and link models.
package xfer

import "fmt"

// Copy2D copies a rows x rowBytes block between byte slices with independent
// row strides (in bytes). Source and destination must not overlap.
func Copy2D(dst []byte, dstOff, dstStride int64, src []byte, srcOff, srcStride int64, rows int, rowBytes int) error {
	if rows < 0 || rowBytes < 0 {
		return fmt.Errorf("xfer: negative block shape %dx%d", rows, rowBytes)
	}
	if rows == 0 || rowBytes == 0 {
		return nil
	}
	lastSrc := srcOff + int64(rows-1)*srcStride + int64(rowBytes)
	lastDst := dstOff + int64(rows-1)*dstStride + int64(rowBytes)
	if srcOff < 0 || lastSrc > int64(len(src)) {
		return fmt.Errorf("xfer: source block [%d,%d) outside %d bytes", srcOff, lastSrc, len(src))
	}
	if dstOff < 0 || lastDst > int64(len(dst)) {
		return fmt.Errorf("xfer: destination block [%d,%d) outside %d bytes", dstOff, lastDst, len(dst))
	}
	for r := 0; r < rows; r++ {
		s := srcOff + int64(r)*srcStride
		d := dstOff + int64(r)*dstStride
		copy(dst[d:d+int64(rowBytes)], src[s:s+int64(rowBytes)])
	}
	return nil
}

// TransposeF32 transposes a rows x cols row-major float32 matrix into dst
// (cols x rows, row-major): the row-major <-> column-major layout transform
// the paper suggests applying as data migrates across levels (§VI).
func TransposeF32(dst, src []float32, rows, cols int) error {
	if len(src) < rows*cols || len(dst) < rows*cols {
		return fmt.Errorf("xfer: transpose %dx%d needs %d elements (src %d, dst %d)",
			rows, cols, rows*cols, len(src), len(dst))
	}
	// Blocked transpose for cache friendliness on large matrices.
	const bs = 32
	for i0 := 0; i0 < rows; i0 += bs {
		imax := i0 + bs
		if imax > rows {
			imax = rows
		}
		for j0 := 0; j0 < cols; j0 += bs {
			jmax := j0 + bs
			if jmax > cols {
				jmax = cols
			}
			for i := i0; i < imax; i++ {
				for j := j0; j < jmax; j++ {
					dst[j*rows+i] = src[i*cols+j]
				}
			}
		}
	}
	return nil
}
