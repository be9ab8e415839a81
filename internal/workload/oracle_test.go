package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The sparse generators inline math/rand's draws. The oracle below is the
// generator they replaced, drawing through rand.Rand with a per-row
// map and an insertion sort; every row pointer, column and value must
// match it.

// oracleRowPtr is SparseRowPtr drawing through rand.Rand.
func oracleRowPtr(kind SparseKind, n, avgNNZ int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	rowPtr := make([]int32, n+1)
	for r := 0; r < n; r++ {
		rowPtr[r+1] = rowPtr[r] + int32(oracleRowLength(kind, rng, n, avgNNZ, r))
	}
	return rowPtr
}

// oracleRowLength draws one row's non-zero count.
func oracleRowLength(kind SparseKind, rng *rand.Rand, n, avgNNZ, row int) int {
	var rowLen int
	switch kind {
	case SparseUniform:
		rowLen = avgNNZ/2 + rng.Intn(avgNNZ+1)
	case SparsePowerLaw:
		u := rng.Float64()
		rowLen = int(float64(avgNNZ) / 3 * math.Pow(u, -0.55))
		if rowLen > n {
			rowLen = n
		}
	case SparseBanded:
		rowLen = avgNNZ
	}
	if rowLen < 1 {
		rowLen = 1
	}
	if kind == SparseBanded {
		half := rowLen / 2
		lo := row - half
		count := 0
		for c := lo; count < rowLen && c < n; c++ {
			if c >= 0 {
				count++
			}
		}
		return count
	}
	if rowLen > n {
		rowLen = n
	}
	return rowLen
}

// oracleSparse is Sparse drawing through rand.Rand.
func oracleSparse(kind SparseKind, n, avgNNZ int, seed int64) *CSR {
	m := &CSR{NRows: n, NCols: n, RowPtr: oracleRowPtr(kind, n, avgNNZ, seed)}
	nnz := int(m.RowPtr[n])
	m.ColIdx = make([]int32, 0, nnz)
	m.Val = make([]float32, 0, nnz)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	cols := make([]int32, 0, avgNNZ)
	for r := 0; r < n; r++ {
		rowLen := int(m.RowPtr[r+1] - m.RowPtr[r])
		cols = cols[:0]
		switch kind {
		case SparseBanded:
			base := avgNNZ
			if base < 1 {
				base = 1
			}
			half := base / 2
			for c := r - half; len(cols) < rowLen; c++ {
				if c >= 0 && c < n {
					cols = append(cols, int32(c))
				}
				if c >= n {
					break
				}
			}
		default:
			seen := make(map[int32]bool, rowLen)
			for len(cols) < rowLen && len(cols) < n {
				c := int32(rng.Intn(n))
				if !seen[c] {
					seen[c] = true
					cols = append(cols, c)
				}
			}
			for i := 1; i < len(cols); i++ {
				for j := i; j > 0 && cols[j-1] > cols[j]; j-- {
					cols[j-1], cols[j] = cols[j], cols[j-1]
				}
			}
		}
		for _, c := range cols {
			m.ColIdx = append(m.ColIdx, c)
			m.Val = append(m.Val, float32(rng.Float64()*2-1))
		}
	}
	return m
}

// matchOracle compares SparseRowPtr and Sparse with the oracle.
func matchOracle(kind SparseKind, n, avgNNZ int, seed int64) error {
	want := oracleSparse(kind, n, avgNNZ, seed)
	rowPtr, err := SparseRowPtr(kind, n, avgNNZ, seed)
	if err != nil {
		return err
	}
	if !slices.Equal(rowPtr, want.RowPtr) {
		return fmt.Errorf("SparseRowPtr differs from the oracle's row_ptr")
	}
	got := Sparse(kind, n, avgNNZ, seed)
	if got.NRows != n || got.NCols != n {
		return fmt.Errorf("shape %dx%d", got.NRows, got.NCols)
	}
	if !slices.Equal(got.RowPtr, want.RowPtr) {
		return fmt.Errorf("row_ptr differs")
	}
	if i := firstDiff(got.ColIdx, want.ColIdx); i >= 0 {
		return fmt.Errorf("col_id differs at %d of %d/%d", i, len(got.ColIdx), len(want.ColIdx))
	}
	if i := firstDiff(got.Val, want.Val); i >= 0 {
		return fmt.Errorf("data differs at %d of %d/%d", i, len(got.Val), len(want.Val))
	}
	return nil
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestDrawsMatchRand pins intn and unitFloat to Rand.Intn and
// Rand.Float64 on a shared seed, over spans where Int31n redraws often (a
// span of 1<<30 + 1 redraws about half its draws) and power-of-two spans,
// where it masks.
func TestDrawsMatchRand(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 41, 65, 70000, 1 << 16, 3 << 29, 1 << 30, 1<<30 + 1, math.MaxInt32} {
		src, rng := rand.NewSource(int64(n)), rand.New(rand.NewSource(int64(n)))
		d := newIntn(n)
		for i := 0; i < 2000; i++ {
			if got, want := d.draw(src), rng.Intn(n); int(got) != want {
				t.Fatalf("Intn(%d) draw %d: %d, rand.Rand %d", n, i, got, want)
			}
			if got, want := unitFloat(src), rng.Float64(); got != want {
				t.Fatalf("Float64 after Intn(%d) draw %d: %v, rand.Rand %v", n, i, got, want)
			}
		}
	}
}

// TestSparseMatchesRandOracle covers rows clamped to n and both of
// Int31n's paths: avgNNZ+1 or n a power of two takes its mask, the rest
// its rejection bound. At 70000 columns the bound redraws about one column
// draw in 90000. That size runs seed 1 and averages up to 16 only (58
// redraws over its uniform and power-law matrices), and not under -race:
// the map-based oracle takes about 4 s a seed over all nine averages
// there, against 0.7 s for the rest of the table.
func TestSparseMatchesRandOracle(t *testing.T) {
	for _, kind := range []SparseKind{SparseUniform, SparsePowerLaw, SparseBanded} {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{1, 2, 3, 7, 100, 4096, 70000} {
				for _, avg := range []int{0, 1, 2, 3, 7, 15, 16, 31, 40} {
					for _, seed := range []int64{1, 3, -77} {
						if n == 70000 && (seed != 1 || avg > 16 || raceEnabled) {
							continue
						}
						if err := matchOracle(kind, n, avg, seed); err != nil {
							t.Errorf("n=%d avg=%d seed=%d: %v", n, avg, seed, err)
						}
					}
				}
			}
		})
	}
}

// FuzzSparseMatchesRand compares the generators with the oracle over a
// drawn kind, up to 4096 rows, averages up to 64 and any seed.
func FuzzSparseMatchesRand(f *testing.F) {
	f.Add(uint8(0), uint16(100), uint8(16), int64(1))
	f.Add(uint8(1), uint16(4096), uint8(64), int64(3))
	f.Add(uint8(2), uint16(7), uint8(40), int64(-5))
	f.Add(uint8(0), uint16(0), uint8(0), int64(0))
	f.Fuzz(func(t *testing.T, kind uint8, n uint16, avg uint8, seed int64) {
		k, rows, a := SparseKind(kind%3), int(n%4097), int(avg%65)
		if err := matchOracle(k, rows, a, seed); err != nil {
			t.Fatalf("%v n=%d avg=%d seed=%d: %v", k, rows, a, seed, err)
		}
	})
}
