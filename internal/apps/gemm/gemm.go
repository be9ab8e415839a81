// Package gemm implements the paper's first case study (§IV-A): tiled dense
// matrix multiply C = A·B, as an in-memory GPU baseline and as a Northup
// out-of-core recursive program with row/column shards.
//
// The GPU kernel follows the paper's optimized tiled OpenCL baseline: each
// workgroup produces one TileDim x TileDim block of C, staging KTile-wide
// panels of A and B through local memory (the paper's 16x16 local blocking).
package gemm

import (
	"fmt"

	"repro/internal/gpu"
)

const (
	// TileDim is the C-tile edge computed by one workgroup.
	TileDim = 64
	// KTile is the local-memory blocking depth (16x16 tiles in the paper).
	KTile = 16
)

// Reference computes C = A(n x k) * B(k x m) on the host, row-major.
// It is the correctness oracle for both the baseline and Northup runs.
func Reference(C, A, B []float32, n, k, m int) {
	for i := 0; i < n; i++ {
		ci := C[i*m : (i+1)*m]
		for j := range ci {
			ci[j] = 0
		}
		for kk := 0; kk < k; kk++ {
			a := A[i*k+kk]
			if a == 0 {
				continue
			}
			axpy(ci, B[kk*m:kk*m+m], a)
		}
	}
}

// axpy adds a*src to dst, element by element: dst[j] += a * src[j]. It is
// the inner loop of Reference and of TileKernel's groups. Unrolling it four
// wide keeps its speed steady wherever the linker places it, and every
// element still gets the same multiply and add, so results stay bit-exact.
func axpy(dst, src []float32, a float32) {
	src = src[:len(dst)]
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		d, s := dst[j:j+4:j+4], src[j:j+4:j+4]
		d[0] += a * s[0]
		d[1] += a * s[1]
		d[2] += a * s[2]
		d[3] += a * s[3]
	}
	for ; j < len(dst); j++ {
		dst[j] += a * src[j]
	}
}

// Groups returns the workgroup count of a TileKernel over an n x m output.
func Groups(n, m int) int {
	tx := (m + TileDim - 1) / TileDim
	ty := (n + TileDim - 1) / TileDim
	return tx * ty
}

// TileKernel builds the tiled GEMM kernel computing C(n x m) = A(n x k) *
// B(k x m), or += when accumulate is set (used for k-panel accumulation on
// the 3-level topology). Pass nil slices for a phantom (timing-only) kernel.
//
// Cost model: 2*TileDim^2*k flops per group; device traffic of one A strip,
// one B strip and the C tile per group (local-memory reuse folded in).
func TileKernel(C, A, B []float32, n, k, m int, accumulate bool) (gpu.Kernel, int) {
	tilesX := (m + TileDim - 1) / TileDim
	groups := Groups(n, m)
	kern := gpu.Kernel{
		Name:          "gemm-tile",
		FlopsPerGroup: 2 * float64(TileDim) * float64(TileDim) * float64(k),
		BytesPerGroup: 4 * (2*float64(TileDim)*float64(k) + float64(TileDim*TileDim)),
		LocalBytes:    2 * TileDim * KTile * 4,
	}
	if C == nil {
		return kern, groups
	}
	if len(A) < n*k || len(B) < k*m || len(C) < n*m {
		panic(fmt.Sprintf("gemm: kernel operands too small for %dx%dx%d", n, k, m))
	}
	kern.Run = func(g int) {
		ty, tx := g/tilesX, g%tilesX
		i0, j0 := ty*TileDim, tx*TileDim
		i1, j1 := i0+TileDim, j0+TileDim
		if i1 > n {
			i1 = n
		}
		if j1 > m {
			j1 = m
		}
		for i := i0; i < i1; i++ {
			out := C[i*m+j0 : i*m+j1]
			if !accumulate {
				for j := range out {
					out[j] = 0
				}
			}
			// KTile-stepped inner blocking mirrors the local-memory
			// staging; functionally it is a plain dot-product update.
			for kk0 := 0; kk0 < k; kk0 += KTile {
				kk1 := kk0 + KTile
				if kk1 > k {
					kk1 = k
				}
				for kk := kk0; kk < kk1; kk++ {
					a := A[i*k+kk]
					if a == 0 {
						continue
					}
					axpy(out, B[kk*m+j0:kk*m+j1], a)
				}
			}
		}
	}
	return kern, groups
}
