package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDenseDeterministic(t *testing.T) {
	a := Dense(16, 16, 7)
	b := Dense(16, 16, 7)
	c := Dense(16, 16, 8)
	if len(a) != 256 {
		t.Fatalf("len = %d", len(a))
	}
	same, diff := true, false
	for i := range a {
		same = same && a[i] == b[i]
		diff = diff || a[i] != c[i]
	}
	if !same {
		t.Fatal("same seed gave different matrices")
	}
	if !diff {
		t.Fatal("different seeds gave identical matrices")
	}
	for _, v := range a {
		if v < -1 || v >= 1 {
			t.Fatalf("entry %g out of range", v)
		}
	}
}

func TestHotSpotGridShape(t *testing.T) {
	g := HotSpotGrid(64, 3)
	if g.N != 64 || len(g.Temp) != 64*64 || len(g.Power) != 64*64 {
		t.Fatal("grid shape wrong")
	}
	var totalPower float64
	for _, p := range g.Power {
		if p < 0 {
			t.Fatal("negative power")
		}
		totalPower += float64(p)
	}
	if totalPower <= 0 {
		t.Fatal("power map empty")
	}
	for _, v := range g.Temp {
		if v < 300 || v > 340 {
			t.Fatalf("temperature %g implausible", v)
		}
	}
}

func TestSparseValidAcrossKinds(t *testing.T) {
	for _, kind := range []SparseKind{SparseUniform, SparsePowerLaw, SparseBanded} {
		m := Sparse(kind, 200, 8, 42)
		if err := m.Validate(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if m.NNZ() < 200 { // at least one per row
			t.Fatalf("%v: nnz = %d", kind, m.NNZ())
		}
		// Column indices sorted within each row.
		for r := 0; r < m.NRows; r++ {
			for i := int(m.RowPtr[r]) + 1; i < int(m.RowPtr[r+1]); i++ {
				if m.ColIdx[i-1] > m.ColIdx[i] {
					t.Fatalf("%v: row %d columns unsorted", kind, r)
				}
			}
		}
	}
}

func TestSparseKindsDifferInShape(t *testing.T) {
	n, avg := 2000, 10
	uniform := Sparse(SparseUniform, n, avg, 1)
	power := Sparse(SparsePowerLaw, n, avg, 1)
	maxRow := func(m *CSR) int {
		mx := 0
		for r := 0; r < m.NRows; r++ {
			if l := m.RowNNZ(r); l > mx {
				mx = l
			}
		}
		return mx
	}
	if maxRow(power) < 4*maxRow(uniform) {
		t.Fatalf("power-law tail (max %d) not heavier than uniform (max %d)",
			maxRow(power), maxRow(uniform))
	}
}

func TestSparseBandedStructure(t *testing.T) {
	m := Sparse(SparseBanded, 100, 5, 9)
	for r := 0; r < m.NRows; r++ {
		for i := m.RowPtr[r]; i < m.RowPtr[r+1]; i++ {
			d := int(m.ColIdx[i]) - r
			if d < -5 || d > 5 {
				t.Fatalf("row %d has entry at distance %d from diagonal", r, d)
			}
		}
	}
}

func TestSparseDeterministic(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		a := Sparse(SparsePowerLaw, n, 4, seed)
		b := Sparse(SparsePowerLaw, n, 4, seed)
		if a.NNZ() != b.NNZ() {
			return false
		}
		for i := range a.Val {
			if a.Val[i] != b.Val[i] || a.ColIdx[i] != b.ColIdx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := Sparse(SparseUniform, 20, 4, 5)
	m.ColIdx[0] = 100 // out of range
	if err := m.Validate(); err == nil {
		t.Fatal("bad column accepted")
	}
	m = Sparse(SparseUniform, 20, 4, 5)
	m.RowPtr[3] = m.RowPtr[4] + 1
	if err := m.Validate(); err == nil {
		t.Fatal("decreasing row_ptr accepted")
	}
	m = Sparse(SparseUniform, 20, 4, 5)
	m.RowPtr = m.RowPtr[:10]
	if err := m.Validate(); err == nil {
		t.Fatal("short row_ptr accepted")
	}
}

func TestSparseRowPtrMatchesFullGenerator(t *testing.T) {
	// Phantom-mode planning relies on SparseRowPtr reproducing exactly the
	// row structure of the full generator.
	for _, kind := range []SparseKind{SparseUniform, SparsePowerLaw, SparseBanded} {
		for _, n := range []int{1, 7, 100, 333} {
			m := Sparse(kind, n, 6, 99)
			if err := m.Validate(); err != nil {
				t.Fatalf("%v n=%d: %v", kind, n, err)
			}
			rp, err := SparseRowPtr(kind, n, 6, 99)
			if err != nil {
				t.Fatalf("%v n=%d: %v", kind, n, err)
			}
			if len(rp) != len(m.RowPtr) {
				t.Fatalf("%v n=%d: length mismatch", kind, n)
			}
			for i := range rp {
				if rp[i] != m.RowPtr[i] {
					t.Fatalf("%v n=%d: row_ptr[%d] = %d vs %d", kind, n, i, rp[i], m.RowPtr[i])
				}
			}
		}
	}
}

// TestSparseRowPtrRefusesOverflow checks the int32 row_ptr limit exactly:
// power-law rows of a huge average all clamp to n, so n rows hold n*n
// non-zeros, which fits at n = 46340 and does not at 46341.
func TestSparseRowPtrRefusesOverflow(t *testing.T) {
	const avg = 1 << 30
	rp, err := SparseRowPtr(SparsePowerLaw, 46340, avg, 1)
	if err != nil || rp[46340] != 46340*46340 {
		t.Fatalf("46340 full rows: err = %v", err)
	}
	for _, tc := range []struct {
		kind   SparseKind
		n, avg int
	}{{SparsePowerLaw, 46341, avg}, {SparseUniform, 46341, avg}, {SparseUniform, 1 << 20, 3000}} {
		if _, err := SparseRowPtr(tc.kind, tc.n, tc.avg, 1); err == nil || !strings.Contains(err.Error(), "int32 row_ptr") {
			t.Errorf("%v n=%d avg=%d: SparseRowPtr err = %v, want the int32 row_ptr limit", tc.kind, tc.n, tc.avg, err)
		}
		if _, err := NewSparse(tc.kind, tc.n, tc.avg, 1); err == nil {
			t.Errorf("%v n=%d avg=%d: NewSparse accepted", tc.kind, tc.n, tc.avg)
		}
	}
	for _, tc := range []struct {
		kind   SparseKind
		n, avg int
	}{{SparseKind(3), 10, 4}, {SparseUniform, -1, 4}, {SparseBanded, math.MaxInt, 4}, {SparseBanded, 10, -1}, {SparsePowerLaw, 10, math.MaxInt32}} {
		if _, err := SparseRowPtr(tc.kind, tc.n, tc.avg, 1); err == nil {
			t.Errorf("%v n=%d avg=%d accepted", tc.kind, tc.n, tc.avg)
		}
	}
}

// TestSparseAllocsDoNotGrowWithRows guards the per-row map the generator
// used to allocate: a matrix costs the same few allocations at any size.
func TestSparseAllocsDoNotGrowWithRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, kind := range []SparseKind{SparseUniform, SparsePowerLaw, SparseBanded} {
		small := testing.AllocsPerRun(3, func() { Sparse(kind, 1<<10, 16, 5) })
		large := testing.AllocsPerRun(1, func() { Sparse(kind, 64<<10, 16, 5) })
		if small != large {
			t.Errorf("%v: %v allocations at 1k rows, %v at 64k", kind, small, large)
		}
	}
}

func TestVectorDeterministic(t *testing.T) {
	a, b := Vector(100, 3), Vector(100, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("vector not deterministic")
		}
	}
}

// BenchmarkSparseRowPtr times each kind's row structure at the benchmark's
// out-of-core SpMV size: 4M rows of 16 non-zeros.
func BenchmarkSparseRowPtr(b *testing.B) {
	for _, kind := range []SparseKind{SparseUniform, SparsePowerLaw, SparseBanded} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SparseRowPtr(kind, 4<<20, 16, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSparse times each kind's whole matrix at the benchmark's
// functional SpMV size: 64k rows of 16 non-zeros.
func BenchmarkSparse(b *testing.B) {
	for _, kind := range []SparseKind{SparseUniform, SparsePowerLaw, SparseBanded} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Sparse(kind, 64<<10, 16, int64(i))
			}
		})
	}
}
