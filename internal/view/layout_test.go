package view

import (
	"math/rand"
	"testing"
)

// seq returns 0, 1, ..., n-1, so any misplaced element shows.
func seq(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(i)
	}
	return out
}

// TestTilesRoundTrip lays random matrices out in random dividing tiles:
// element (i, j) lands in tile (i/th, j/tw), in row-major tile order, at
// row i%th and column j%tw of that contiguous row-major tile, and FromTiles
// gives the matrix back.
func TestTilesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		th, tw := 1+rng.Intn(6), 1+rng.Intn(6)
		rows, cols := th*rng.Intn(6), tw*rng.Intn(6)
		m := seq(rows * cols)
		tiles := ToTiles(m, rows, cols, th, tw)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				tile := (i/th)*(cols/tw) + j/tw
				if got := tiles[tile*th*tw+(i%th)*tw+j%tw]; got != m[i*cols+j] {
					t.Fatalf("%dx%d in %dx%d tiles: element (%d,%d) is %v, want %v",
						rows, cols, th, tw, i, j, got, m[i*cols+j])
				}
			}
		}
		back := FromTiles(tiles, rows, cols, th, tw)
		for k := range m {
			if back[k] != m[k] {
				t.Fatalf("%dx%d in %dx%d tiles: FromTiles element %d is %v, want %v",
					rows, cols, th, tw, k, back[k], m[k])
			}
		}
	}
}

// TestToTilesColumnShardLayout is GEMM's presharded B: n x s tiles of an
// n x n matrix are its column shards, shard j stored at offset j*n*s with
// row r, column c holding B[r][j*s+c].
func TestToTilesColumnShardLayout(t *testing.T) {
	const n, s = 8, 4
	B := seq(n * n)
	pre := ToTiles(B, n, n, n, s)
	for j := 0; j < n/s; j++ {
		for r := 0; r < n; r++ {
			for c := 0; c < s; c++ {
				if pre[j*n*s+r*s+c] != B[r*n+j*s+c] {
					t.Fatalf("preshard mismatch at j=%d r=%d c=%d", j, r, c)
				}
			}
		}
	}
}

// TestTilesThatDoNotDividePanic refuses tiles that do not cut the matrix
// into whole tiles, non-positive tiles and a slice of the wrong length,
// both ways.
func TestTilesThatDoNotDividePanic(t *testing.T) {
	for _, tc := range []struct{ elems, rows, cols, th, tw int }{
		{64, 8, 8, 3, 4},
		{64, 8, 8, 4, 3},
		{64, 8, 8, 0, 4},
		{64, 8, 8, 4, -4},
		{63, 8, 8, 4, 4},
	} {
		for name, f := range map[string]func([]float32, int, int, int, int) []float32{
			"ToTiles": ToTiles, "FromTiles": FromTiles} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s of %d elements as %dx%d in %dx%d tiles did not panic",
							name, tc.elems, tc.rows, tc.cols, tc.th, tc.tw)
					}
				}()
				f(make([]float32, tc.elems), tc.rows, tc.cols, tc.th, tc.tw)
			}()
		}
	}
}
