package hotspot

import (
	"math"
	"math/rand"
	"testing"
)

// stepTileByAt is StepTile as a loop that reads every neighbour through
// at, the body StepTile had before interior cells read theirs directly.
// It is StepTile's oracle.
func stepTileByAt(blk *Block, ty, tx int) {
	d := blk.D
	i1, j1 := min((ty+1)*BlockDim, d), min((tx+1)*BlockDim, d)
	for i := ty * BlockDim; i < i1; i++ {
		for j := tx * BlockDim; j < j1; j++ {
			blk.Out[i*d+j] = updateCell(
				blk.In[i*d+j],
				blk.at(i-1, j), blk.at(i+1, j),
				blk.at(i, j-1), blk.at(i, j+1),
				blk.Power[i*d+j],
			)
		}
	}
}

// TestStepTileMatchesAtOracle steps every tile of random blocks, for chunk
// edges around and between tile multiples and all 16 combinations of
// present and absent borders, with StepTile and with the oracle. After
// each tile the two output grids must be equal bit for bit, cells outside
// the tile included.
func TestStepTileMatchesAtOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	grid := func(n int, lo, hi float32) []float32 {
		g := make([]float32, n)
		for i := range g {
			g[i] = lo + (hi-lo)*rng.Float32()
		}
		return g
	}
	for _, d := range []int{1, 2, 15, 16, 17, 31, 33, 64} {
		for mask := 0; mask < 16; mask++ {
			border := func(side int) []float32 {
				if mask&(1<<side) == 0 {
					return nil
				}
				return grid(d, 250, 450)
			}
			got := &Block{D: d, In: grid(d*d, 250, 450), Power: grid(d*d, 0, 1e-3),
				B: Borders{North: border(0), South: border(1), West: border(2), East: border(3)}}
			want := *got
			got.Out, want.Out = grid(d*d, -1, 0), make([]float32, d*d)
			copy(want.Out, got.Out)
			tiles := (d + BlockDim - 1) / BlockDim
			for ty := 0; ty < tiles; ty++ {
				for tx := 0; tx < tiles; tx++ {
					got.StepTile(ty, tx)
					stepTileByAt(&want, ty, tx)
					for c := range got.Out {
						if math.Float32bits(got.Out[c]) != math.Float32bits(want.Out[c]) {
							t.Fatalf("d=%d borders=%04b tile (%d,%d): cell (%d,%d) = %v, oracle %v",
								d, mask, ty, tx, c/d, c%d, got.Out[c], want.Out[c])
						}
					}
				}
			}
		}
	}
}
