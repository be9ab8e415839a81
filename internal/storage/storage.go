// Package storage implements a simulated file store on top of a block
// device model.
//
// The paper manages the tree root (SSD or disk drive) through POSIX file
// I/O opened with O_DIRECT and O_SYNC, so that reads and writes go straight
// to the device with no page-cache interference (§III-D). This store models
// exactly that regime: every ReadAt/WriteAt is synchronous and charges the
// device's service time; there is no caching layer.
//
// Functionally, a File holds real bytes, so out-of-core runs produce
// bit-checkable results. Content is kept in a lazily grown buffer: bytes
// never written read back as zero, like a sparse file, which keeps host
// memory proportional to the touched working set even when the simulated
// device is large. File.Hash keeps that promise for result digests: it
// reads only the stored bytes and extends the digest over the zero tail in
// closed form, so fingerprinting a file never materializes its full size.
package storage

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/device"
	"repro/internal/sim"
)

// Store is a flat namespace of files on one device.
type Store struct {
	dev     *device.Device
	files   map[string]*File
	nextOff int64 // bump allocator for device extents (drives the seek model)
}

// NewStore creates an empty file store on dev.
func NewStore(dev *device.Device) *Store {
	if !dev.Kind().IsFileStore() && dev.Kind() != device.KindNVM {
		// NVM is allowed: §II notes NVM may be exposed as fast storage.
		panic(fmt.Sprintf("storage: device kind %v is not file-backed", dev.Kind()))
	}
	return &Store{dev: dev, files: make(map[string]*File)}
}

// Device returns the underlying device model.
func (s *Store) Device() *device.Device { return s.dev }

// File is a simulated file. It supports concurrent access from multiple
// simulation processes; the device model serializes their requests.
type File struct {
	store *Store
	name  string
	off   int64 // device extent start, for seek modeling
	size  int64 // logical size (fixed at Create)
	data  []byte
	live  bool
}

// Create allocates a file of the given fixed size, reserving device
// capacity. It fails if the name exists or capacity is exhausted.
func (s *Store) Create(name string, size int64) (*File, error) {
	if size < 0 {
		return nil, fmt.Errorf("storage: create %q: negative size %d", name, size)
	}
	if _, ok := s.files[name]; ok {
		return nil, fmt.Errorf("storage: create %q: file exists", name)
	}
	if err := s.dev.Reserve(size); err != nil {
		return nil, fmt.Errorf("storage: create %q: %w", name, err)
	}
	f := &File{store: s, name: name, off: s.nextOff, size: size, live: true}
	s.nextOff += size
	s.files[name] = f
	return f, nil
}

// Open returns the named file.
func (s *Store) Open(name string) (*File, error) {
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("storage: open %q: no such file", name)
	}
	return f, nil
}

// Remove deletes the named file and releases its capacity. Device extents
// are not recycled (a bump allocator suffices for the seek model).
func (s *Store) Remove(name string) error {
	f, ok := s.files[name]
	if !ok {
		return fmt.Errorf("storage: remove %q: no such file", name)
	}
	delete(s.files, name)
	f.live = false
	s.dev.Unreserve(f.size)
	return nil
}

// List returns the file names in lexical order.
func (s *Store) List() []string {
	names := make([]string, 0, len(s.files))
	for n := range s.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// Size returns the file's fixed logical size.
func (f *File) Size() int64 { return f.size }

// DeviceOffset returns the start of the file's extent on the device.
func (f *File) DeviceOffset() int64 { return f.off }

func (f *File) checkRange(op string, off int64, n int) error {
	if !f.live {
		return fmt.Errorf("storage: %s %q: file removed", op, f.name)
	}
	if off < 0 || off+int64(n) > f.size {
		return fmt.Errorf("storage: %s %q: range [%d,%d) outside size %d",
			op, f.name, off, off+int64(n), f.size)
	}
	return nil
}

// ReadAt fills buf from the file starting at off, charging the device for a
// synchronous read. Unwritten regions read as zero.
func (f *File) ReadAt(p *sim.Proc, buf []byte, off int64) error {
	if err := f.Charge(p, device.Read, off, int64(len(buf))); err != nil {
		return err
	}
	return f.Peek(buf, off)
}

// WriteAt writes buf to the file starting at off, charging the device for a
// synchronous (O_SYNC-style) write.
func (f *File) WriteAt(p *sim.Proc, buf []byte, off int64) error {
	if err := f.Charge(p, device.Write, off, int64(len(buf))); err != nil {
		return err
	}
	return f.Preload(buf, off)
}

// Charge performs a timed access of n bytes at off without touching file
// content. It backs the runtime's phantom mode, where full-paper-scale runs
// are timed without materializing gigabytes of payload.
func (f *File) Charge(p *sim.Proc, op device.Op, off int64, n int64) error {
	if err := f.checkRange(op.String(), off, int(n)); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	f.store.dev.Access(p, op, f.off+off, n)
	return nil
}

// ChargeAsync is Charge without a driving process: it queues the timed device
// access through the inline-callback path and invokes done with the service
// time once the access completes. Range errors are reported synchronously;
// done runs as an engine callback and must not block. A zero-length charge
// completes inline.
func (f *File) ChargeAsync(op device.Op, off, n int64, done func(sim.Time)) error {
	if err := f.checkRange(op.String(), off, int(n)); err != nil {
		return err
	}
	if n == 0 {
		if done != nil {
			done(0)
		}
		return nil
	}
	f.store.dev.AccessAsync(op, f.off+off, n, done)
	return nil
}

// Preload sets file content functionally, with no simulated time: the way
// input datasets "already on storage" are seeded (the paper likewise starts
// measurement with inputs resident on the SSD/disk).
func (f *File) Preload(data []byte, off int64) error {
	if err := f.checkRange("preload", off, len(data)); err != nil {
		return err
	}
	end := off + int64(len(data))
	if int64(len(f.data)) < end {
		grown := make([]byte, end)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[off:end], data)
	return nil
}

// Peek reads file content functionally with no simulated time: used by
// tests and result verification outside the measured region.
func (f *File) Peek(buf []byte, off int64) error {
	if err := f.checkRange("peek", off, len(buf)); err != nil {
		return err
	}
	end := off + int64(len(buf))
	have := int64(len(f.data))
	switch {
	case off >= have:
		for i := range buf {
			buf[i] = 0
		}
	case end <= have:
		copy(buf, f.data[off:end])
	default:
		n := copy(buf, f.data[off:have])
		for i := n; i < len(buf); i++ {
			buf[i] = 0
		}
	}
	return nil
}

// fnvPrime64 is the 64-bit FNV prime hash/fnv's New64a multiplies by.
const fnvPrime64 = 1099511628211

// Hash returns the 64-bit FNV-1a digest of the file's whole logical
// content: the value hash/fnv's New64a gives over a full-size Peek, with no
// simulated time and without copying the content. Only the stored prefix
// is hashed byte by byte. FNV-1a over a zero byte leaves the state
// unchanged by the xor and multiplies it by the prime, so the unwritten
// tail of k zero bytes multiplies the digest by prime^k mod 2^64, computed
// by square-and-multiply: O(stored bytes + log size).
func (f *File) Hash() (uint64, error) {
	if err := f.checkRange("hash", 0, 0); err != nil {
		return 0, err
	}
	stored := f.data[:min(int64(len(f.data)), f.size)]
	h := fnv.New64a()
	h.Write(stored)
	sum := h.Sum64()
	p := uint64(fnvPrime64)
	for k := f.size - int64(len(stored)); k > 0; k >>= 1 {
		if k&1 == 1 {
			sum *= p
		}
		p *= p
	}
	return sum, nil
}

// ReadAt2D reads a 2-D block of rows*rowBytes bytes laid out with the given
// stride between row starts, issuing one device request per row. On a
// mechanical drive each row hop pays the seek penalty, which is exactly the
// "border elements stored non-contiguously" inefficiency the paper calls out
// for HotSpot-2D (§IV-B) and the motivation for chunk-major preprocessing.
func (f *File) ReadAt2D(p *sim.Proc, dst []byte, off int64, rows, rowBytes int, stride int64) error {
	if int64(rows)*int64(rowBytes) > int64(len(dst)) {
		return fmt.Errorf("storage: read2d %q: dst too small", f.name)
	}
	for r := 0; r < rows; r++ {
		src := off + int64(r)*stride
		d := dst[r*rowBytes : (r+1)*rowBytes]
		if err := f.ReadAt(p, d, src); err != nil {
			return err
		}
	}
	return nil
}

// WriteAt2D is the write counterpart of ReadAt2D.
func (f *File) WriteAt2D(p *sim.Proc, src []byte, off int64, rows, rowBytes int, stride int64) error {
	if int64(rows)*int64(rowBytes) > int64(len(src)) {
		return fmt.Errorf("storage: write2d %q: src too small", f.name)
	}
	for r := 0; r < rows; r++ {
		dst := off + int64(r)*stride
		s := src[r*rowBytes : (r+1)*rowBytes]
		if err := f.WriteAt(p, s, dst); err != nil {
			return err
		}
	}
	return nil
}
