// Package spmv implements the paper's third case study (§IV-C): sparse
// matrix-vector multiplication with the CSR-Adaptive algorithm of
// Greathouse and Daga (the paper's baseline [20]), as an in-memory GPU
// baseline and a Northup out-of-core version with nnz-adaptive row shards.
//
// CSR-Adaptive bins consecutive rows into row blocks on the CPU and picks a
// kernel per block shape:
//
//   - CSR-Stream: many short rows whose combined non-zeros fit the local
//     memory window; one workgroup streams them all and reduces per row.
//   - CSR-Vector: one long row per workgroup.
//   - CSR-VectorL: one very long row split across several workgroups that
//     accumulate partial sums.
//
// The workgroups of one launch may run at once (package gpu), so the
// functional CSR-VectorL body does not accumulate across groups: the group
// of a row's first slice sums every slice of the row in block order, and
// the other slices' groups do nothing. That is the serial pass's sequence
// of float32 operations, so the row's sum is the same bit for bit, and the
// cost model still charges every slice's group.
package spmv

import "repro/internal/workload"

const (
	// NNZPerGroup is the CSR-Stream local-memory window (non-zeros one
	// workgroup stages), as in the CSR-Adaptive paper.
	NNZPerGroup = 2048
	// VectorLongThreshold is the row length beyond which a row is split
	// across multiple workgroups (CSR-VectorL).
	VectorLongThreshold = 4 * NNZPerGroup
)

// BlockKind labels a row block's kernel.
type BlockKind int

const (
	// Stream blocks hold several short rows (CSR-Stream kernel).
	Stream BlockKind = iota
	// Vector blocks hold one long row (CSR-Vector kernel).
	Vector
	// VectorLong blocks hold a slice of one very long row, combined with
	// partial-sum accumulation (CSR-VectorL kernel).
	VectorLong
)

// String names the kind.
func (k BlockKind) String() string {
	switch k {
	case Stream:
		return "stream"
	case Vector:
		return "vector"
	default:
		return "vectorL"
	}
}

// RowBlock is one workgroup's assignment. Row indices are relative to the
// shard being processed; NNZ offsets are relative to the shard's value
// array.
type RowBlock struct {
	Kind   BlockKind
	Row0   int  // first row (inclusive)
	Row1   int  // last row (exclusive); Row1 = Row0+1 for Vector kinds
	NNZ0   int  // first non-zero (inclusive), for VectorLong slices
	NNZ1   int  // last non-zero (exclusive)
	ClearY bool // VectorLong: whether this slice initializes the row sum
}

// BuildRowBlocks bins rows [0, len(rowPtr)-1) into row blocks, the CPU-side
// preprocessing of CSR-Adaptive. rowPtr is shard-relative (rowPtr[0] may be
// nonzero; offsets are taken relative to it).
func BuildRowBlocks(rowPtr []int32) []RowBlock {
	nRows := len(rowPtr) - 1
	base := rowPtr[0]
	// Room for two blocks per NNZPerGroup non-zeros: a stream block and the
	// row after it hold more than NNZPerGroup together, so the slice rarely
	// grows.
	blocks := make([]RowBlock, 0, 2*int(rowPtr[nRows]-base)/NNZPerGroup+1)
	r := 0
	for r < nRows {
		nnz := int(rowPtr[r+1] - rowPtr[r])
		if nnz > VectorLongThreshold {
			// Split one huge row into NNZPerGroup-sized slices.
			start := int(rowPtr[r] - base)
			end := int(rowPtr[r+1] - base)
			for s := start; s < end; s += NNZPerGroup {
				e := s + NNZPerGroup
				if e > end {
					e = end
				}
				blocks = append(blocks, RowBlock{
					Kind: VectorLong, Row0: r, Row1: r + 1,
					NNZ0: s, NNZ1: e, ClearY: s == start,
				})
			}
			r++
			continue
		}
		if nnz > NNZPerGroup {
			blocks = append(blocks, RowBlock{
				Kind: Vector, Row0: r, Row1: r + 1,
				NNZ0: int(rowPtr[r] - base), NNZ1: int(rowPtr[r+1] - base),
			})
			r++
			continue
		}
		// Greedily pack consecutive short rows into one stream window: the
		// rows after r while the window's non-zeros stay within
		// NNZPerGroup. The limit is an int, so it cannot wrap.
		limit := int(rowPtr[r]) + NNZPerGroup
		r1 := r + 1
		for r1 < nRows && int(rowPtr[r1+1]) <= limit {
			r1++
		}
		kind := Stream
		if r1 == r+1 {
			// A lone row in the window behaves like CSR-Vector.
			kind = Vector
		}
		blocks = append(blocks, RowBlock{
			Kind: kind, Row0: r, Row1: r1,
			NNZ0: int(rowPtr[r] - base), NNZ1: int(rowPtr[r1] - base),
		})
		r = r1
	}
	return blocks
}

// Reference computes y = A x on the host: the correctness oracle.
func Reference(m *workload.CSR, x []float32) []float32 {
	y := make([]float32, m.NRows)
	for r := 0; r < m.NRows; r++ {
		var sum float32
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			sum += m.Val[i] * x[m.ColIdx[i]]
		}
		y[r] = sum
	}
	return y
}

// ExecBlock computes one row block functionally. rowPtr is shard-relative
// as in BuildRowBlocks; col/val are the shard's slices; y is the shard's
// output segment. A CSR-VectorL slice adds to the sum its row's earlier
// slices left, so a row's slices run in block order (execGroup).
func ExecBlock(b RowBlock, rowPtr []int32, col []int32, val, x, y []float32) {
	base := rowPtr[0]
	switch b.Kind {
	case Stream, Vector:
		for r := b.Row0; r < b.Row1; r++ {
			var sum float32
			for i := rowPtr[r] - base; i < rowPtr[r+1]-base; i++ {
				sum += val[i] * x[col[i]]
			}
			y[r] = sum
		}
	case VectorLong:
		var sum float32
		for i := b.NNZ0; i < b.NNZ1; i++ {
			sum += val[i] * x[col[i]]
		}
		if b.ClearY {
			y[b.Row0] = sum
		} else {
			y[b.Row0] += sum // atomic add on real hardware
		}
	}
}

// execGroup computes workgroup g of a launch over blocks functionally. A
// CSR-VectorL row runs whole in the group of its first slice, in block
// order; the groups of its later slices do nothing.
func execGroup(blocks []RowBlock, g int, rowPtr []int32, col []int32, val, x, y []float32) {
	b := blocks[g]
	if b.Kind != VectorLong {
		ExecBlock(b, rowPtr, col, val, x, y)
		return
	}
	if !b.ClearY {
		return
	}
	for _, s := range blocks[g:] {
		if s.Kind != VectorLong || s.Row0 != b.Row0 {
			break
		}
		ExecBlock(s, rowPtr, col, val, x, y)
	}
}

// Cost-model constants for the roofline: every non-zero streams 8 bytes of
// matrix data (column index + value) plus a gathered read of x. Gathers on
// an irregular column pattern fetch whole cache lines, most of which is
// wasted — GatherBytes models that amplification, and is what makes SpMV
// the most bandwidth-hungry of the three applications (Figures 6-9 place
// CSR-Adaptive at the memory-bound extreme).
const (
	FlopsPerNNZ = 2.0
	StreamBytes = 8.0
	GatherBytes = 48.0
	RowOutBytes = 8.0 // row_ptr read + y write per row
	// BinFlopsPerRow and BinBytesPerRow cost the CPU binning pass (§V-C:
	// "CSR-Adaptive uses the CPU for binning rows ... and spends
	// relatively more time").
	BinFlopsPerRow = 8.0
	BinBytesPerRow = 24.0
)

// BlockCost returns the roofline inputs for one row block.
func BlockCost(b RowBlock, rowPtr []int32) (flops, bytes float64) {
	var nnz int
	if b.Kind == VectorLong {
		nnz = b.NNZ1 - b.NNZ0
	} else {
		nnz = int(rowPtr[b.Row1] - rowPtr[b.Row0])
	}
	rows := b.Row1 - b.Row0
	flops = FlopsPerNNZ * float64(nnz)
	bytes = (StreamBytes+GatherBytes)*float64(nnz) + RowOutBytes*float64(rows)
	return flops, bytes
}
