package xfer

import (
	"testing"
	"testing/quick"

	"repro/internal/view"
)

func TestCopy2DExtractsBlock(t *testing.T) {
	// 4x4 source matrix of bytes; extract the center 2x2.
	src := []byte{
		0, 1, 2, 3,
		4, 5, 6, 7,
		8, 9, 10, 11,
		12, 13, 14, 15,
	}
	dst := make([]byte, 4)
	if err := Copy2D(dst, 0, 2, src, 4*1+1, 4, 2, 2); err != nil {
		t.Fatal(err)
	}
	want := []byte{5, 6, 9, 10}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}

func TestCopy2DInsertsBlock(t *testing.T) {
	dst := make([]byte, 16)
	src := []byte{1, 2, 3, 4}
	if err := Copy2D(dst, 4*2+2, 4, src, 0, 2, 2, 2); err != nil {
		t.Fatal(err)
	}
	if dst[10] != 1 || dst[11] != 2 || dst[14] != 3 || dst[15] != 4 {
		t.Fatalf("dst = %v", dst)
	}
}

func TestCopy2DBoundsChecked(t *testing.T) {
	src := make([]byte, 16)
	dst := make([]byte, 4)
	if err := Copy2D(dst, 0, 2, src, 12, 4, 2, 2); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if err := Copy2D(dst, 2, 2, src, 0, 4, 2, 2); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if err := Copy2D(dst, 0, 2, src, 0, 4, -1, 2); err == nil {
		t.Fatal("negative rows accepted")
	}
	if err := Copy2D(dst, 0, 2, src, 0, 4, 0, 0); err != nil {
		t.Fatalf("empty copy failed: %v", err)
	}
}

func TestCopy2DRoundTrip(t *testing.T) {
	// Property: extracting a block and re-inserting it restores the data.
	f := func(seed []byte, rRaw, cRaw uint8) bool {
		rows, cols := int(rRaw%6)+1, int(cRaw%6)+1
		full := make([]byte, (rows+2)*(cols+2))
		for i := range full {
			if len(seed) > 0 {
				full[i] = seed[i%len(seed)]
			}
		}
		orig := append([]byte(nil), full...)
		stride := int64(cols + 2)
		block := make([]byte, rows*cols)
		if Copy2D(block, 0, int64(cols), full, stride+1, stride, rows, cols) != nil {
			return false
		}
		// Zero the region, then re-insert.
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				full[(r+1)*int(stride)+1+c] = 0
			}
		}
		if Copy2D(full, stride+1, stride, block, 0, int64(cols), rows, cols) != nil {
			return false
		}
		for i := range full {
			if full[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(vals []float32, rRaw uint8) bool {
		rows := int(rRaw%8) + 1
		if len(vals) < rows {
			return true
		}
		cols := len(vals) / rows
		if cols == 0 {
			return true
		}
		src := vals[:rows*cols]
		tmp := make([]float32, rows*cols)
		back := make([]float32, rows*cols)
		if TransposeF32(tmp, src, rows, cols) != nil {
			return false
		}
		if TransposeF32(back, tmp, cols, rows) != nil {
			return false
		}
		for i := range src {
			if view.F32Bytes(src[i : i+1])[0] != view.F32Bytes(back[i : i+1])[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeKnown(t *testing.T) {
	src := []float32{1, 2, 3, 4, 5, 6} // 2x3
	dst := make([]float32, 6)
	if err := TransposeF32(dst, src, 2, 3); err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 4, 2, 5, 3, 6}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v", dst)
		}
	}
	if err := TransposeF32(dst[:2], src, 2, 3); err == nil {
		t.Fatal("short dst accepted")
	}
}
