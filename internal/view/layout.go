package view

import "fmt"

// ToTiles returns the rows x cols row-major matrix m laid out as th x tw
// tiles in row-major tile order, each tile stored row-major and
// contiguously: tile (i, j) starts at element (i*cols/tw + j)*th*tw. This
// is the paper's one-time reorganization of an input file, which makes
// every chunk read sequential (§V-B). It panics when the tiles do not
// divide the matrix.
func ToTiles(m []float32, rows, cols, th, tw int) []float32 {
	return retile(m, rows, cols, th, tw, true)
}

// FromTiles inverts ToTiles: it returns the row-major rows x cols matrix
// whose th x tw tiles t holds in row-major tile order.
func FromTiles(t []float32, rows, cols, th, tw int) []float32 {
	return retile(t, rows, cols, th, tw, false)
}

// retile copies src into a new matrix, one tile row at a time, from the
// row-major layout to the tiled one (toTiles) or back.
func retile(src []float32, rows, cols, th, tw int, toTiles bool) []float32 {
	if th <= 0 || tw <= 0 || rows%th != 0 || cols%tw != 0 || len(src) != rows*cols {
		panic(fmt.Sprintf("view: %dx%d tiles do not divide a %dx%d matrix of %d elements",
			th, tw, rows, cols, len(src)))
	}
	out := make([]float32, len(src))
	perRow := cols / tw
	for t := 0; t < len(src)/(th*tw); t++ {
		tiled, flat := t*th*tw, (t/perRow)*th*cols+(t%perRow)*tw
		for r := 0; r < th; r, tiled, flat = r+1, tiled+tw, flat+cols {
			if toTiles {
				copy(out[tiled:tiled+tw], src[flat:flat+tw])
			} else {
				copy(out[flat:flat+tw], src[tiled:tiled+tw])
			}
		}
	}
	return out
}
