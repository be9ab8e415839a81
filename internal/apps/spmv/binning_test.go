package spmv

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/workload"
)

// oracleRowBlocks is BuildRowBlocks as it was before the stream window
// compared row pointers: it accumulates each window's non-zeros row by row.
func oracleRowBlocks(rowPtr []int32) []RowBlock {
	nRows := len(rowPtr) - 1
	base := rowPtr[0]
	var blocks []RowBlock
	r := 0
	for r < nRows {
		nnz := int(rowPtr[r+1] - rowPtr[r])
		if nnz > VectorLongThreshold {
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
		r1 := r
		acc := 0
		for r1 < nRows {
			next := int(rowPtr[r1+1] - rowPtr[r1])
			if next > NNZPerGroup {
				break
			}
			if acc+next > NNZPerGroup {
				break
			}
			acc += next
			r1++
		}
		kind := Stream
		if r1 == r+1 {
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

// rowPtrOf builds a row_ptr starting at base from row lengths.
func rowPtrOf(base int32, lens ...int) []int32 {
	rp := []int32{base}
	for _, l := range lens {
		rp = append(rp, rp[len(rp)-1]+int32(l))
	}
	return rp
}

func TestBuildRowBlocksMatchesOracle(t *testing.T) {
	check := func(name string, rowPtr []int32) {
		t.Helper()
		got, want := BuildRowBlocks(rowPtr), oracleRowBlocks(rowPtr)
		if !slices.Equal(got, want) {
			t.Errorf("%s: %d blocks, oracle %d; first difference at %d", name,
				len(got), len(want), firstBlockDiff(got, want))
		}
	}
	// Each kind's generated row structure, whole and as shard-relative
	// slices with a nonzero base. The power-law tail reaches VectorL rows.
	for _, kind := range []workload.SparseKind{workload.SparseUniform, workload.SparsePowerLaw, workload.SparseBanded} {
		for _, avg := range []int{1, 16, 200, 3000} {
			const n = 20000
			rowPtr, err := workload.SparseRowPtr(kind, n, avg, 7)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%v avg=%d", kind, avg), rowPtr)
			for _, sh := range []shardRange{{1, 2}, {3, 4000}, {4000, 4001}, {777, n}, {n / 2, n}} {
				check(fmt.Sprintf("%v avg=%d rows [%d,%d)", kind, avg, sh.r0, sh.r1), rowPtr[sh.r0:sh.r1+1])
			}
		}
	}
	// Window edges: empty rows, rows of exactly the window, one past it,
	// the VectorL threshold and one past that.
	const g, v = NNZPerGroup, VectorLongThreshold
	for name, lens := range map[string][]int{
		"empty":          {0, 0, 0},
		"empty-runs":     {0, 5, 0, 0, g - 5, 0, 0, 1, 0},
		"window":         {g, g, 0, g},
		"window+1":       {g + 1, 0, g + 1, 1},
		"fill-to-window": {g - 1, 1, 1, g - 1, 0, 0},
		"vectorL-edge":   {v, v + 1, 0, v, 3, v + 1},
		"mixed":          {1, 2, g, 0, g + 1, v, v + 1, g - 3, 3, 0, 0, 2 * v},
	} {
		check(name, rowPtrOf(0, lens...))
		check(name+" based", rowPtrOf(123456, lens...))
	}
	check("no rows", []int32{42})
}

// firstBlockDiff returns the first index where a and b differ.
func firstBlockDiff(a, b []RowBlock) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
