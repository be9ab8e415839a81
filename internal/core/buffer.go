package core

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Buffer is the paper's opaque buffer handle (the "void pointer" of Table I
// and §III-D): space on some tree node, usable with MoveData regardless of
// whether the node is a file storage, host DRAM, or GPU device memory.
//
// For memory-kind nodes the buffer carries a real byte payload (kernels
// compute on it); for file-backed nodes the payload lives in a simulated
// file and is only reachable through MoveData — exactly the load/store
// versus I/O split the unified interface hides.
type Buffer struct {
	node *topo.Node
	size int64
	id   int64 // stable identity; cache entries key on it

	ext  alloc.Extent  // mem-kind nodes
	data []byte        // mem-kind nodes: functional payload
	file *storage.File // file-backed nodes

	cref     *cacheRef // non-nil when the cached move path owns/tracks it
	released bool
}

// ID returns the buffer's stable identity (the Src half of a cache key).
func (b *Buffer) ID() int64 { return b.id }

// Node returns the tree node the buffer lives on.
func (b *Buffer) Node() *topo.Node { return b.node }

// Size returns the buffer's size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// OnStorage reports whether the buffer is file-backed (I/O access only).
func (b *Buffer) OnStorage() bool { return b.file != nil }

// Bytes returns the functional payload of a memory-kind buffer. It panics
// for file-backed buffers: storage content is only reachable via MoveData,
// as dereferencing a disk address would be on real hardware.
func (b *Buffer) Bytes() []byte {
	if b.file != nil {
		panic(fmt.Sprintf("core: Bytes() on storage buffer %q", b.file.Name()))
	}
	return b.data
}

// File returns the backing file of a storage buffer (nil otherwise);
// used by preprocessing utilities.
func (b *Buffer) File() *storage.File { return b.file }

// allocSetupCost models the buffer-creation overhead per device kind:
// file creation is a metadata operation; clCreateBuffer-style device
// allocations cost tens of microseconds; host mallocs are cheap.
func allocSetupCost(k device.Kind) sim.Time {
	switch {
	case k.IsFileStore():
		return sim.Microseconds(150)
	case k == device.KindGPUMem:
		return sim.Microseconds(30)
	default:
		return sim.Microseconds(2)
	}
}

// AllocAt reserves size bytes on node and returns the buffer handle,
// charging buffer-setup time. This is Table I's alloc(size, tree_node).
// Injected transient ENOSPC (allocation pressure) and node outages are
// retried under the runtime's RetryPolicy; genuine capacity exhaustion
// surfaces as *device.ErrCapacity without retrying.
func (rt *Runtime) AllocAt(p *sim.Proc, node *topo.Node, size int64) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("core: alloc %d bytes on %v", size, node)
	}
	rt.chargeOverhead(p)
	var b *Buffer
	err := rt.withRetry(p, "alloc", func() error {
		// Each attempt pays the setup cost: a refused clCreateBuffer or
		// file creation still burns the round trip.
		cost := allocSetupCost(node.Kind())
		costStart := p.Now()
		p.Sleep(cost)
		rt.chargeSpan(p, trace.Lane{Node: node.ID, Track: trace.TrackAlloc},
			trace.BufferSetup, spanAlloc, costStart, p.Now(), size)
		if rt.opts.Faults != nil {
			if err := rt.opts.Faults.Alloc(p, node.ID, size); err != nil {
				return err
			}
		}
		b = &Buffer{node: node, size: size}
		if node.Kind().IsFileStore() {
			rt.bufSeq++
			name := fmt.Sprintf("nubuf-%04d", rt.bufSeq)
			f, err := node.Store.Create(name, size)
			if err != nil {
				return err
			}
			b.file = f
			return nil
		}
		ext, err := rt.allocs[node.ID].Alloc(size)
		// Under pressure the node's staging cache gives ground: evict one
		// LRU entry at a time until the allocation fits or nothing
		// evictable remains — the application's working set always wins
		// over cached copies.
		for err != nil && rt.cacheRelieve(p, node) {
			ext, err = rt.allocs[node.ID].Alloc(size)
		}
		if err != nil {
			return fmt.Errorf("core: alloc on %v: %w", node, err)
		}
		b.ext = ext
		if !rt.opts.Phantom {
			b.data = make([]byte, size)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b.id = rt.nextBufID()
	return b, nil
}

// Release frees the buffer's space (Table I's release). Releasing nil or
// releasing twice returns an error (and frees nothing), so recovery paths
// that double-release under fault cleanup degrade to an error instead of
// crashing the whole simulation. Buffers owned by the staging cache are
// refused — their lifetime belongs to the pool; let go with Unpin.
func (rt *Runtime) Release(p *sim.Proc, b *Buffer) error {
	if b == nil {
		return fmt.Errorf("core: release of nil buffer")
	}
	if b.cref != nil && b.cref.entry != nil {
		return fmt.Errorf("core: release of cache-owned buffer on %v (use Unpin)", b.node)
	}
	if b.released {
		return fmt.Errorf("core: double release of buffer on %v", b.node)
	}
	rt.markReleased(b)
	rt.chargeOverhead(p)
	return rt.freeBuffer(b)
}

// freeBuffer returns a released buffer's space to its node: the end of
// Release, after its bookkeeping charge.
func (rt *Runtime) freeBuffer(b *Buffer) error {
	if b.file != nil {
		if err := b.node.Store.Remove(b.file.Name()); err != nil {
			return fmt.Errorf("core: releasing storage buffer: %w", err)
		}
		return nil
	}
	rt.allocs[b.node.ID].Free(b.ext)
	b.data = nil
	return nil
}

// WrapFile adopts an existing file (e.g. a preloaded input dataset) as a
// storage buffer on the file's node, so applications can MoveData from it.
func (rt *Runtime) WrapFile(node *topo.Node, f *storage.File) *Buffer {
	if node.Store == nil {
		panic(fmt.Sprintf("core: WrapFile on non-storage node %v", node))
	}
	return &Buffer{node: node, size: f.Size(), file: f, id: rt.nextBufID()}
}

// Phantom reports whether the runtime is in timing-only mode.
func (rt *Runtime) Phantom() bool { return rt.opts.Phantom }

// CreateInput creates a file of the given size on a storage node and — in
// functional mode — preloads it with data, all outside simulated time. It
// models an input dataset that is already resident on the storage level
// when measurement begins, the paper's starting condition ("a program
// starts execution from the storage level", §V-B). In phantom mode data is
// ignored and may be nil.
func (rt *Runtime) CreateInput(node *topo.Node, name string, size int64, data []byte) (*Buffer, error) {
	if node.Store == nil {
		return nil, fmt.Errorf("core: CreateInput on non-storage node %v", node)
	}
	f, err := node.Store.Create(name, size)
	if err != nil {
		return nil, err
	}
	if !rt.opts.Phantom && data != nil {
		if err := f.Preload(data, 0); err != nil {
			return nil, err
		}
	}
	return rt.WrapFile(node, f), nil
}
