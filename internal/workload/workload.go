// Package workload generates deterministic inputs for the three evaluation
// applications: dense float32 matrices (GEMM), power/temperature grids
// (HotSpot-2D), and sparse matrices in CSR form (CSR-Adaptive SpMV).
//
// The paper's SpMV inputs come from the University of Florida collection;
// that dataset is substituted by synthetic generators spanning the same
// regularity spectrum the CSR-Adaptive algorithm bins for: uniform short
// rows (CSR-Stream territory), power-law rows with a heavy tail
// (CSR-Vector/VectorL territory), and banded matrices (regular HPC stencils).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Dense returns a rows x cols row-major float32 matrix with deterministic
// pseudo-random entries in [-1, 1).
func Dense(rows, cols int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	m := make([]float32, rows*cols)
	for i := range m {
		m[i] = float32(rng.Float64()*2 - 1)
	}
	return m
}

// Grid holds a HotSpot-2D problem: an n x n temperature field and the
// corresponding dissipated-power field, both row-major.
type Grid struct {
	N     int
	Temp  []float32
	Power []float32
}

// HotSpotGrid returns an n x n thermal problem: ambient-ish temperatures
// with hot spots, and a power map with a few strong sources, the shape of
// Rodinia's HotSpot inputs.
func HotSpotGrid(n int, seed int64) *Grid {
	rng := rand.New(rand.NewSource(seed))
	g := &Grid{
		N:     n,
		Temp:  make([]float32, n*n),
		Power: make([]float32, n*n),
	}
	for i := range g.Temp {
		g.Temp[i] = 323 + float32(rng.Float64())*10 // ~50C ambient
	}
	// A handful of hot functional units.
	for u := 0; u < 8; u++ {
		cx, cy := rng.Intn(n), rng.Intn(n)
		r := n/16 + 1
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				x, y := cx+dx, cy+dy
				if x < 0 || y < 0 || x >= n || y >= n {
					continue
				}
				d := math.Hypot(float64(dx), float64(dy))
				if d <= float64(r) {
					g.Power[y*n+x] += float32(2e-4 * (1 - d/float64(r+1)))
				}
			}
		}
	}
	return g
}

// CSR is a sparse matrix in compressed-sparse-row format, the three compact
// vectors of §IV-C: row_ptr, col_id and data.
type CSR struct {
	NRows, NCols int
	RowPtr       []int32 // length NRows+1
	ColIdx       []int32 // length NNZ
	Val          []float32
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// RowNNZ returns the number of non-zeros in row r.
func (m *CSR) RowNNZ(r int) int { return int(m.RowPtr[r+1] - m.RowPtr[r]) }

// Validate checks CSR structural invariants.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.NRows+1 {
		return fmt.Errorf("workload: row_ptr length %d for %d rows", len(m.RowPtr), m.NRows)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("workload: row_ptr[0] = %d", m.RowPtr[0])
	}
	if int(m.RowPtr[m.NRows]) != len(m.Val) || len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("workload: nnz mismatch: row_ptr end %d, col %d, val %d",
			m.RowPtr[m.NRows], len(m.ColIdx), len(m.Val))
	}
	for r := 0; r < m.NRows; r++ {
		if m.RowPtr[r+1] < m.RowPtr[r] {
			return fmt.Errorf("workload: row_ptr decreases at row %d", r)
		}
	}
	for i, c := range m.ColIdx {
		if c < 0 || int(c) >= m.NCols {
			return fmt.Errorf("workload: col_id[%d] = %d outside %d columns", i, c, m.NCols)
		}
	}
	return nil
}

// SparseKind selects a sparse-matrix structure.
type SparseKind int

const (
	// SparseUniform gives every row about the same short length: the
	// regular matrices CSR-Stream handles best.
	SparseUniform SparseKind = iota
	// SparsePowerLaw gives Zipf-distributed row lengths with a heavy tail:
	// the irregular matrices that need CSR-Vector and CSR-VectorL.
	SparsePowerLaw
	// SparseBanded concentrates non-zeros near the diagonal, like
	// discretized PDE operators.
	SparseBanded
)

// String names the kind.
func (k SparseKind) String() string {
	switch k {
	case SparseUniform:
		return "uniform"
	case SparsePowerLaw:
		return "powerlaw"
	case SparseBanded:
		return "banded"
	default:
		return fmt.Sprintf("sparse(%d)", int(k))
	}
}

// SparseRowPtr generates only the row_ptr vector of Sparse(kind, n, avgNNZ,
// seed): the row-length structure without materializing columns and values.
// The out-of-core planner (nnz-adaptive shard splitting, §IV-C) needs
// exactly this much even in phantom (timing-only) runs, where a 16M-row
// matrix's values never exist on the host. It fails, at the row where the
// sum would wrap, when the rows hold more non-zeros than an int32 row_ptr
// indexes.
//
// The draws are math/rand's, Rand.Intn and Rand.Float64 over
// rand.NewSource(seed), written out (intn, unitFloat) so that the compiler
// inlines the source's Int63 into each loop: a call through rand.Rand per
// row was most of the generator's time.
func SparseRowPtr(kind SparseKind, n, avgNNZ int, seed int64) ([]int32, error) {
	if kind < SparseUniform || kind > SparseBanded {
		return nil, fmt.Errorf("workload: unknown sparse kind %v", kind)
	}
	// Every row holds a non-zero, so more rows than math.MaxInt32 cannot fit.
	if n < 0 || n > math.MaxInt32 || avgNNZ < 0 || avgNNZ >= math.MaxInt32 {
		return nil, fmt.Errorf("workload: %d rows of %d non-zeros: want 0 <= rows <= %d and 0 <= non-zeros < %d",
			n, avgNNZ, math.MaxInt32, math.MaxInt32)
	}
	rowPtr := make([]int32, n+1)
	src := rand.NewSource(seed)
	var sum int64
	r := 0
	switch kind {
	case SparseUniform:
		span := newIntn(avgNNZ + 1)
		for ; r < n; r++ {
			sum += int64(min(max(avgNNZ/2+int(span.draw(src)), 1), n))
			if sum > math.MaxInt32 {
				break
			}
			rowPtr[r+1] = int32(sum)
		}
	case SparsePowerLaw:
		// Zipf-ish via inverse transform; mean scaled to avgNNZ.
		scale := float64(avgNNZ) / 3
		for ; r < n; r++ {
			sum += int64(max(min(int(scale*math.Pow(unitFloat(src), -0.55)), n), 1))
			if sum > math.MaxInt32 {
				break
			}
			rowPtr[r+1] = int32(sum)
		}
	case SparseBanded:
		// A band of avgNNZ columns centred on the diagonal, clipped at the
		// matrix edges.
		band := max(avgNNZ, 1)
		for ; r < n; r++ {
			sum += int64(min(band, n-max(r-band/2, 0)))
			if sum > math.MaxInt32 {
				break
			}
			rowPtr[r+1] = int32(sum)
		}
	}
	if r < n {
		return nil, fmt.Errorf("workload: %v rows 0..%d of %d hold %d non-zeros, more than an int32 row_ptr indexes",
			kind, r, n, sum)
	}
	return rowPtr, nil
}

// intn draws Rand.Intn(n) for 0 < n <= math.MaxInt32, which is Int31n(n):
// a 31-bit draw, redrawn while it lies above bound, in the last, partial
// run of n values below 2^31, then taken modulo n. When n is a power of
// two nothing is redrawn and the remainder is Int31n's mask.
type intn struct{ n, bound int32 }

func newIntn(n int) intn {
	return intn{int32(n), int32(math.MaxInt32 - (1<<31)%uint32(n))}
}

// draw takes the next value from src. Callers hold src as the local that
// rand.NewSource returned, so the compiler devirtualizes its Int63. draw
// and unitFloat are just within the inliner's budget; `go build
// -gcflags=-m` must still report both inlined after a change.
func (d intn) draw(src rand.Source) int32 {
	for {
		if v := int32(src.Int63() >> 32); v <= d.bound {
			return v % d.n
		}
	}
}

// unitFloat is Rand.Float64 over src.
func unitFloat(src rand.Source) float64 {
	for {
		if f := float64(src.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Sparse generates an n x n CSR matrix with roughly avgNNZ non-zeros per
// row, structured per kind, deterministically from seed. Its row_ptr is
// bit-identical to SparseRowPtr(kind, n, avgNNZ, seed). It panics where
// SparseRowPtr fails; NewSparse returns that error instead.
func Sparse(kind SparseKind, n, avgNNZ int, seed int64) *CSR {
	m, err := NewSparse(kind, n, avgNNZ, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// NewSparse is Sparse, failing where SparseRowPtr fails.
func NewSparse(kind SparseKind, n, avgNNZ int, seed int64) (*CSR, error) {
	rowPtr, err := SparseRowPtr(kind, n, avgNNZ, seed)
	if err != nil {
		return nil, err
	}
	nnz := rowPtr[n]
	m := &CSR{NRows: n, NCols: n, RowPtr: rowPtr,
		ColIdx: make([]int32, nnz), Val: make([]float32, nnz)}
	// Columns and values come from an independent stream so that the row
	// structure alone can be regenerated cheaply. A random column is
	// Rand.Intn(n) (n fits an int32: every row holds a non-zero), redrawn
	// when the row already holds it; seen keeps, per column, the last row
	// that drew it, plus one.
	src := rand.NewSource(seed ^ 0x5eed5eed)
	half := max(avgNNZ, 1) / 2
	var col intn
	var seen []int32
	if kind != SparseBanded && n > 0 {
		col, seen = newIntn(n), make([]int32, n)
	}
	for r := 0; r < n; r++ {
		lo, hi := rowPtr[r], rowPtr[r+1]
		cols := m.ColIdx[lo:hi]
		if kind == SparseBanded {
			// The band starts at the pre-clip half-width, so edge rows
			// enumerate the columns SparseRowPtr counted.
			c := int32(max(r-half, 0))
			for i := range cols {
				cols[i] = c + int32(i)
			}
		} else {
			stamp := int32(r + 1)
			for i := 0; i < len(cols); {
				if c := col.draw(src); seen[c] != stamp {
					seen[c] = stamp
					cols[i] = c
					i++
				}
			}
			slices.Sort(cols)
		}
		for i := lo; i < hi; i++ {
			m.Val[i] = float32(unitFloat(src)*2 - 1)
		}
	}
	return m, nil
}

// Vector returns a deterministic dense vector of length n.
func Vector(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.Float64()*2 - 1)
	}
	return v
}
