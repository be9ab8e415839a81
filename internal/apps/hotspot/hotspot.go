// Package hotspot implements the paper's second case study (§IV-B): the
// HotSpot-2D thermal simulation (a 5-point Jacobi stencil over temperature
// and power grids, after Rodinia), as an in-memory GPU baseline, a Northup
// out-of-core version with packed border vectors, and a CPU+GPU
// work-stealing variant (§V-E, Figure 10) used by the load-balancing study.
//
// Out-of-core semantics: a pass loads each chunk once, runs Iters Jacobi
// steps on it with the chunk's four border vectors fixed at their pass-start
// values (the paper moves the borders down once per chunk, §IV-B), and
// writes the chunk back. With Iters=1 this is exactly the global Jacobi
// step; with more iterations it is the standard blocked approximation, and
// correctness is verified against ReferenceBlocked, which implements the
// identical semantics sequentially.
package hotspot

import "fmt"

// BlockDim is the GPU workgroup tile edge (16x16 in the paper, with
// (BlockDim+2)^2 local-memory staging).
const BlockDim = 16

// Physical constants of the thermal model (Rodinia-flavored, folded into
// three update coefficients; values keep the Jacobi iteration stable).
const (
	coefN   = 0.125 // vertical-neighbor coupling (dt / (cap * Ry))
	coefE   = 0.125 // horizontal-neighbor coupling (dt / (cap * Rx))
	coefAmb = 0.05  // coupling to ambient (dt / (cap * Rz))
	ambient = 300.0 // Kelvin
	powerK  = 1e4   // power-to-temperature scale (dt / cap)
)

// updateCell computes one Jacobi update given the cell's neighbors.
func updateCell(t, tn, ts, tw, te, p float32) float32 {
	return t +
		coefN*(tn+ts-2*t) +
		coefE*(tw+te-2*t) +
		coefAmb*(ambient-t) +
		powerK*p
}

// Borders holds a chunk's four packed border vectors: the rows/columns just
// outside the chunk, each of length D (the chunk edge). A nil vector means
// the chunk touches the grid boundary on that side (clamped, as in Rodinia).
type Borders struct {
	North, South, West, East []float32
}

// Block describes one stencil operand: a D x D temperature chunk with its
// borders and power map.
type Block struct {
	D       int
	In, Out []float32 // D*D each
	Power   []float32
	B       Borders
}

// at reads the pass-start temperature at (i, j), which may lie one cell
// outside the chunk; border vectors supply those values, and missing
// borders clamp to the nearest in-chunk cell.
func (blk *Block) at(i, j int) float32 {
	d := blk.D
	switch {
	case i < 0:
		if blk.B.North != nil {
			return blk.B.North[j]
		}
		i = 0
	case i >= d:
		if blk.B.South != nil {
			return blk.B.South[j]
		}
		i = d - 1
	case j < 0:
		if blk.B.West != nil {
			return blk.B.West[i]
		}
		j = 0
	case j >= d:
		if blk.B.East != nil {
			return blk.B.East[i]
		}
		j = d - 1
	}
	return blk.In[i*d+j]
}

// StepTile advances one BlockDim x BlockDim tile (tile coordinates ty, tx)
// of the block by one Jacobi iteration: the functional body of one GPU
// workgroup. A cell off the chunk's edge rows and columns has all four
// neighbours inside the chunk and reads them directly; only edge cells
// go through at.
func (blk *Block) StepTile(ty, tx int) {
	d := blk.D
	j0 := tx * BlockDim
	i1, j1 := min((ty+1)*BlockDim, d), min((tx+1)*BlockDim, d)
	for i := ty * BlockDim; i < i1; i++ {
		if i == 0 || i == d-1 {
			blk.stepEdge(i, j0, j1)
			continue
		}
		lo, hi := max(j0, 1), min(j1, d-1)
		blk.stepEdge(i, j0, lo)
		up, row, down := blk.In[(i-1)*d:i*d], blk.In[i*d:(i+1)*d], blk.In[(i+1)*d:(i+2)*d]
		out, pow := blk.Out[i*d:(i+1)*d], blk.Power[i*d:(i+1)*d]
		for j := lo; j < hi; j++ {
			out[j] = updateCell(row[j], up[j], down[j], row[j-1], row[j+1], pow[j])
		}
		blk.stepEdge(i, hi, j1)
	}
}

// stepEdge updates cells [j0, j1) of row i, reading every neighbour
// through at.
func (blk *Block) stepEdge(i, j0, j1 int) {
	d := blk.D
	for j := j0; j < j1; j++ {
		blk.Out[i*d+j] = updateCell(
			blk.In[i*d+j],
			blk.at(i-1, j), blk.at(i+1, j),
			blk.at(i, j-1), blk.at(i, j+1),
			blk.Power[i*d+j],
		)
	}
}

// Swap exchanges the in and out grids between iterations.
func (blk *Block) Swap() { blk.In, blk.Out = blk.Out, blk.In }

// TileFlops and TileBytes are the per-workgroup roofline inputs: ~15 flops
// per cell, and traffic of the (BlockDim+2)^2 halo load, the power map and
// the output store.
const (
	TileFlops = 15 * BlockDim * BlockDim
	TileBytes = 4 * ((BlockDim+2)*(BlockDim+2) + 2*BlockDim*BlockDim)
)

// TileLocalBytes is the local-memory allocation per workgroup: the
// (BlockDim+2)^2 staging array of §IV-B.
const TileLocalBytes = (BlockDim + 2) * (BlockDim + 2) * 4

// Reference advances the full n x n grid by iters global Jacobi steps —
// the ground truth for single-iteration passes and the in-memory baseline.
func Reference(temp, power []float32, n, iters int) []float32 {
	in := append([]float32(nil), temp...)
	out := make([]float32, n*n)
	clamp := func(i, lo, hi int) int {
		if i < lo {
			return lo
		}
		if i > hi {
			return hi
		}
		return i
	}
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				out[i*n+j] = updateCell(
					in[i*n+j],
					in[clamp(i-1, 0, n-1)*n+j], in[clamp(i+1, 0, n-1)*n+j],
					in[i*n+clamp(j-1, 0, n-1)], in[i*n+clamp(j+1, 0, n-1)],
					power[i*n+j],
				)
			}
		}
		in, out = out, in
	}
	return in
}

// ReferenceBlocked advances the grid with the blocked out-of-core
// semantics: the grid is divided into chunkDim x chunkDim chunks; each
// chunk runs iters Jacobi steps with border vectors frozen at their
// pass-start values. It is the oracle the Northup run must match exactly.
func ReferenceBlocked(temp, power []float32, n, chunkDim, iters int) ([]float32, error) {
	if n%chunkDim != 0 {
		return nil, fmt.Errorf("hotspot: chunk %d does not divide %d", chunkDim, n)
	}
	cb := n / chunkDim
	result := make([]float32, n*n)
	for bi := 0; bi < cb; bi++ {
		for bj := 0; bj < cb; bj++ {
			blk := ExtractBlock(temp, power, n, chunkDim, bi, bj)
			for it := 0; it < iters; it++ {
				for ty := 0; ty < (chunkDim+BlockDim-1)/BlockDim; ty++ {
					for tx := 0; tx < (chunkDim+BlockDim-1)/BlockDim; tx++ {
						blk.StepTile(ty, tx)
					}
				}
				blk.Swap()
			}
			// After the final Swap, In holds the result.
			for r := 0; r < chunkDim; r++ {
				copy(result[(bi*chunkDim+r)*n+bj*chunkDim:(bi*chunkDim+r)*n+(bj+1)*chunkDim],
					blk.In[r*chunkDim:(r+1)*chunkDim])
			}
		}
	}
	return result, nil
}

// ExtractBlock cuts chunk (bi, bj) out of the full grids, packing its
// border vectors, entirely on the host (used by the oracle and by
// preprocessing).
func ExtractBlock(temp, power []float32, n, d, bi, bj int) *Block {
	blk := &Block{
		D:     d,
		In:    make([]float32, d*d),
		Out:   make([]float32, d*d),
		Power: make([]float32, d*d),
	}
	i0, j0 := bi*d, bj*d
	for r := 0; r < d; r++ {
		copy(blk.In[r*d:(r+1)*d], temp[(i0+r)*n+j0:(i0+r)*n+j0+d])
		copy(blk.Power[r*d:(r+1)*d], power[(i0+r)*n+j0:(i0+r)*n+j0+d])
	}
	if i0 > 0 {
		blk.B.North = append([]float32(nil), temp[(i0-1)*n+j0:(i0-1)*n+j0+d]...)
	}
	if i0+d < n {
		blk.B.South = append([]float32(nil), temp[(i0+d)*n+j0:(i0+d)*n+j0+d]...)
	}
	if j0 > 0 {
		blk.B.West = make([]float32, d)
		for r := 0; r < d; r++ {
			blk.B.West[r] = temp[(i0+r)*n+j0-1]
		}
	}
	if j0+d < n {
		blk.B.East = make([]float32, d)
		for r := 0; r < d; r++ {
			blk.B.East[r] = temp[(i0+r)*n+j0+d]
		}
	}
	return blk
}
