package xfer

import "testing"

// BenchmarkCopy2D measures the strided block-copy primitive on a 256x256
// float32 tile extracted from a 1024-wide matrix.
func BenchmarkCopy2D(b *testing.B) {
	src := make([]byte, 1024*1024*4)
	dst := make([]byte, 256*256*4)
	b.SetBytes(256 * 256 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Copy2D(dst, 0, 256*4, src, 0, 1024*4, 256, 256*4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransposeF32 measures the blocked transpose on a 512x512 tile.
func BenchmarkTransposeF32(b *testing.B) {
	src := make([]float32, 512*512)
	dst := make([]float32, 512*512)
	b.SetBytes(512 * 512 * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := TransposeF32(dst, src, 512, 512); err != nil {
			b.Fatal(err)
		}
	}
}
