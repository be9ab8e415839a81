// Package view reinterprets raw byte buffers as typed element slices, and
// lays matrices out as contiguous tiles for the files chunks are read from.
//
// Northup's unified data-management interface is deliberately untyped: the
// paper uses void pointers and lets each operation decide how to interpret
// them (§III-D, "the current implementation uses void pointers"). Buffers in
// this reproduction carry []byte payloads; view provides the checked,
// zero-copy reinterpretations the applications need (float32 matrices,
// int32 CSR index arrays), playing the role the paper assigns to a future
// "UniversalType".
package view

import (
	"fmt"
	"unsafe"
)

// F32 reinterprets b as a []float32 sharing b's storage.
// len(b) must be a multiple of 4.
func F32(b []byte) []float32 {
	if len(b) == 0 {
		return nil
	}
	if len(b)%4 != 0 {
		panic(fmt.Sprintf("view: F32 of %d bytes", len(b)))
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// I32 reinterprets b as a []int32 sharing b's storage.
// len(b) must be a multiple of 4.
func I32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	if len(b)%4 != 0 {
		panic(fmt.Sprintf("view: I32 of %d bytes", len(b)))
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// F32Bytes reinterprets a []float32 as bytes sharing its storage.
func F32Bytes(f []float32) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), len(f)*4)
}

// I32Bytes reinterprets a []int32 as bytes sharing its storage.
func I32Bytes(v []int32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}
