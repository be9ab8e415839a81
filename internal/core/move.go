package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// This file implements the unified move_data of the paper's Table I and
// Listing 4: one entry point whose behaviour is chosen by examining the
// storage types of the source and destination tree nodes — file I/O for
// storage endpoints, DMA/PCIe transfers for memory endpoints.

// MoveData copies n bytes from src (at srcOff) to dst (at dstOff), charging
// the device, link and I/O times of whichever path connects the two nodes.
// Transient faults injected on the edge (failures, delays, offline
// endpoints) are retried under the runtime's RetryPolicy; a re-attempted
// move re-copies the same bytes, so retries preserve bit-correctness.
func (rt *Runtime) MoveData(p *sim.Proc, dst *Buffer, src *Buffer, dstOff, srcOff, n int64) error {
	if err := checkMove(dst, src, dstOff, srcOff, n); err != nil {
		return err
	}
	if err := rt.checkMoveDst(dst); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	// Invalidate once, outside the retry loop: cached copies of the written
	// range must vanish whether or not the move needs re-attempts, and a
	// retried move must not double-count invalidations.
	rt.invalidateRange(p, dst, dstOff, n)
	rt.chargeOverhead(p)
	return rt.withRetry(p, "move_data", func() error {
		return rt.moveOnce(p, dst, src, dstOff, srcOff, n)
	})
}

// moveOnce is one attempt of MoveData: the fault check, then the dispatch
// of Listing 4. A file access is its device charge followed by the copy
// (storage.File's ReadAt is Charge then Peek, WriteAt is Charge then
// Preload); phantom mode charges the same and skips the copies. asyncMove
// is the same attempt on engine callbacks, charge for charge.
func (rt *Runtime) moveOnce(p *sim.Proc, dst *Buffer, src *Buffer, dstOff, srcOff, n int64) error {
	if err := rt.faultTransfer(p, src, dst, n); err != nil {
		return err
	}
	copies := !rt.opts.Phantom
	start := p.Now()
	var cat trace.Category
	var err error
	switch {
	case src.file != nil && dst.file == nil:
		cat = trace.IO
		if err = src.file.Charge(p, device.Read, srcOff, n); err == nil && copies {
			err = src.file.Peek(dst.data[dstOff:dstOff+n], srcOff)
		}
		if err == nil && dst.node.Kind() == device.KindGPUMem {
			// GPUDirect-style path: the storage read lands in device memory
			// through the PCIe link as well.
			rt.pcie.Transfer(p, nil, dst.node.Mem, n)
		}
	case src.file == nil && dst.file != nil:
		cat = trace.IO
		if src.node.Kind() == device.KindGPUMem {
			rt.pcie.Transfer(p, src.node.Mem, nil, n)
		}
		if err = dst.file.Charge(p, device.Write, dstOff, n); err == nil && copies {
			err = dst.file.Preload(src.data[srcOff:srcOff+n], dstOff)
		}
	case src.file != nil && dst.file != nil:
		cat = trace.IO
		var tmp []byte
		if copies {
			tmp = rt.getScratch(n)
		}
		if err = src.file.Charge(p, device.Read, srcOff, n); err == nil && copies {
			err = src.file.Peek(tmp, srcOff)
		}
		if err == nil {
			if err = dst.file.Charge(p, device.Write, dstOff, n); err == nil && copies {
				err = dst.file.Preload(tmp, dstOff)
			}
		}
		rt.putScratch(tmp)
	default: // memory to memory
		cat = trace.Transfer
		if copies {
			copy(dst.data[dstOff:dstOff+n], src.data[srcOff:srcOff+n])
		}
		rt.link(src, dst).Transfer(p, src.node.Mem, dst.node.Mem, n)
	}
	rt.chargeSpan(p, moveLane(cat, dst, src), cat, spanMove, start, p.Now(), n)
	return err
}

// asyncMove is MoveData on engine callbacks, for the hops of a streamed
// move: the same checks, cache invalidation (each victim released as
// Release does), bookkeeping, fault draws (the injector's stall and fail
// phases around a timer), charges and retries (retryAfter), in the same
// order at the same virtual times as MoveData and moveOnce. Its
// continuations are bound once (newAsyncMove), so a move allocates
// nothing beyond what the device models allocate per charge.
type asyncMove struct {
	rt             *Runtime
	dst, src       *Buffer
	dstOff, srcOff int64
	n              int64
	done           func(error) // receives the move's result

	attempt int
	start   sim.Time // the attempt's start, the deadline's reference
	at      sim.Time // start of the pause or the charges under way
	span    string   // the runtime span the pause under way charges
	then    func()   // what follows the pause under way
	cat     trace.Category
	victims []any  // invalidated cache copies still to release
	tmp     []byte // file-to-file staging

	afterVictim, afterPause, afterTry, afterStall, afterRetry func()
	afterRead, afterWrite, afterLink                          func(sim.Time)
}

// newAsyncMove returns a move on rt reporting to done, its continuations
// bound.
func newAsyncMove(rt *Runtime, done func(error)) *asyncMove {
	m := &asyncMove{rt: rt, done: done}
	m.afterVictim, m.afterPause, m.afterTry = m.victimReleased, m.paused, m.try
	m.afterStall, m.afterRetry = m.failDraw, m.retry
	m.afterRead, m.afterWrite, m.afterLink = m.readDone, m.writeDone, m.linkDone
	return m
}

// begin starts moving src[srcOff:srcOff+n) to dst[dstOff:dstOff+n).
func (m *asyncMove) begin(dst, src *Buffer, dstOff, srcOff, n int64) {
	if err := checkMove(dst, src, dstOff, srcOff, n); err != nil {
		m.done(err)
		return
	}
	if err := m.rt.checkMoveDst(dst); err != nil {
		m.done(err)
		return
	}
	if n == 0 {
		m.done(nil)
		return
	}
	m.dst, m.src, m.dstOff, m.srcOff, m.n, m.attempt = dst, src, dstOff, srcOff, n, 0
	for _, nc := range m.rt.caches {
		m.victims = append(m.victims, m.rt.invalidateIn(nc, dst, dstOff, n)...)
	}
	m.releaseVictims()
}

// releaseVictims releases the invalidated cache copies in order, then
// charges MoveData's bookkeeping before the first attempt.
func (m *asyncMove) releaseVictims() {
	if len(m.victims) == 0 {
		m.bookkeep(m.afterTry)
		return
	}
	b := m.victims[0].(*Buffer)
	b.cref, b.released = nil, true
	m.bookkeep(m.afterVictim)
}

func (m *asyncMove) victimReleased() {
	_ = m.rt.freeBuffer(m.victims[0].(*Buffer))
	m.victims = m.victims[:copy(m.victims, m.victims[1:])]
	m.releaseVictims()
}

// bookkeep charges one unit of runtime bookkeeping, as chargeOverhead
// does, then runs then.
func (m *asyncMove) bookkeep(then func()) {
	if ovh := m.rt.opts.OverheadPerOp; ovh > 0 {
		m.pause(ovh, spanBookkeeping, then)
		return
	}
	then()
}

// pause waits d, charges the wait to the runtime as span, then runs then.
func (m *asyncMove) pause(d sim.Time, span string, then func()) {
	m.at, m.span, m.then = m.rt.engine.Now(), span, then
	m.rt.engine.After(d, m.afterPause)
}

// paused charges the pause. Its value is the attempt number, as for
// withRetry's backoff spans; bookkeeping only precedes the first attempt,
// so its spans carry 0, as chargeOverhead's do.
func (m *asyncMove) paused() {
	m.rt.chargeSpan(nil, laneRuntime, trace.Runtime, m.span, m.at, m.rt.engine.Now(), int64(m.attempt))
	m.then()
}

// try starts an attempt: the deadline clock, then the fault check.
func (m *asyncMove) try() {
	m.start = m.rt.engine.Now()
	in := m.rt.opts.Faults
	if in == nil {
		m.dispatch()
		return
	}
	stall, err := in.TransferStall(m.src.node.ID, m.dst.node.ID)
	switch {
	case err != nil:
		m.settle(err)
	case stall > 0:
		m.rt.engine.After(stall, m.afterStall)
	default:
		m.failDraw()
	}
}

func (m *asyncMove) failDraw() {
	if err := m.rt.opts.Faults.TransferFail(m.src.node.ID, m.dst.node.ID, m.n); err != nil {
		m.settle(err)
		return
	}
	m.dispatch()
}

// dispatch issues moveOnce's charges, each continuing in its completion
// callback.
func (m *asyncMove) dispatch() {
	rt := m.rt
	m.at = rt.engine.Now()
	switch {
	case m.src.file != nil:
		m.cat = trace.IO
		if m.dst.file != nil && !rt.opts.Phantom {
			m.tmp = rt.getScratch(m.n)
		}
		m.access(m.src.file, device.Read, m.srcOff, m.afterRead)
	case m.dst.file != nil:
		m.cat = trace.IO
		if m.src.node.Kind() == device.KindGPUMem {
			rt.pcie.TransferAsync(m.src.node.Mem, nil, m.n, m.afterLink)
			return
		}
		m.access(m.dst.file, device.Write, m.dstOff, m.afterWrite)
	default: // memory to memory
		m.cat = trace.Transfer
		if !rt.opts.Phantom {
			copy(m.dst.data[m.dstOff:m.dstOff+m.n], m.src.data[m.srcOff:m.srcOff+m.n])
		}
		rt.link(m.src, m.dst).TransferAsync(m.src.node.Mem, m.dst.node.Mem, m.n, m.afterLink)
	}
}

// access charges the move's n bytes at off of file f, then runs next; a
// range error ends the attempt's charges at once.
func (m *asyncMove) access(f *storage.File, op device.Op, off int64, next func(sim.Time)) {
	if err := f.ChargeAsync(op, off, m.n, next); err != nil {
		m.charged(err)
	}
}

func (m *asyncMove) readDone(sim.Time) {
	var err error
	if !m.rt.opts.Phantom {
		buf := m.tmp
		if m.dst.file == nil {
			buf = m.dst.data[m.dstOff : m.dstOff+m.n]
		}
		err = m.src.file.Peek(buf, m.srcOff)
	}
	switch {
	case err != nil:
		m.charged(err)
	case m.dst.file != nil: // file to file, staged through m.tmp
		m.access(m.dst.file, device.Write, m.dstOff, m.afterWrite)
	case m.dst.node.Kind() == device.KindGPUMem: // GPUDirect, as moveOnce
		m.rt.pcie.TransferAsync(nil, m.dst.node.Mem, m.n, m.afterLink)
	default:
		m.charged(nil)
	}
}

func (m *asyncMove) writeDone(sim.Time) {
	var err error
	if !m.rt.opts.Phantom {
		data := m.tmp
		if m.src.file == nil {
			data = m.src.data[m.srcOff : m.srcOff+m.n]
		}
		err = m.dst.file.Preload(data, m.dstOff)
	}
	m.charged(err)
}

func (m *asyncMove) linkDone(sim.Time) {
	if m.dst.file != nil { // a GPU source crosses PCIe before the write
		m.access(m.dst.file, device.Write, m.dstOff, m.afterWrite)
		return
	}
	m.charged(nil)
}

// charged ends the attempt's charges with the move span, then settles.
func (m *asyncMove) charged(err error) {
	if m.tmp != nil {
		m.rt.putScratch(m.tmp)
		m.tmp = nil
	}
	m.rt.chargeSpan(nil, moveLane(m.cat, m.dst, m.src), m.cat, spanMove, m.at, m.rt.engine.Now(), m.n)
	m.settle(err)
}

// settle hands the attempt's outcome to the retry policy: done receives
// the final result, or the backoff runs and the next attempt follows.
func (m *asyncMove) settle(err error) {
	if retry, backoff, err := m.rt.retryAfter("move_data", m.attempt, m.start, err); !retry {
		m.done(err)
	} else {
		m.pause(backoff, spanBackoff, m.afterRetry)
	}
}

func (m *asyncMove) retry() {
	m.attempt++
	m.try()
}

// MoveData2D copies a rows x rowBytes block with independent strides on
// each side — the dCopyBlockH2D/D2H pattern of the paper's Listing 2,
// subsumed into the unified interface.
//
// Strided file accesses are issued row by row (each row is one I/O request,
// so discontiguous layouts pay per-row latency and seeks); strided
// memory-to-memory copies use one DMA transfer for the whole block.
func (rt *Runtime) MoveData2D(p *sim.Proc, dst *Buffer, src *Buffer,
	dstOff, dstStride, srcOff, srcStride int64, rows int, rowBytes int) error {
	if rows < 0 || rowBytes < 0 {
		return fmt.Errorf("core: move2d with negative shape %dx%d", rows, rowBytes)
	}
	if rows == 0 || rowBytes == 0 {
		return nil
	}
	if dstStride < 0 || srcStride < 0 {
		return fmt.Errorf("core: move2d with negative stride")
	}
	// Check the first and last rows; with non-negative strides every other
	// row lies between them.
	if err := checkMove(dst, src, dstOff, srcOff, int64(rowBytes)); err != nil {
		return err
	}
	if err := checkMove(dst, src,
		dstOff+int64(rows-1)*dstStride, srcOff+int64(rows-1)*srcStride, int64(rowBytes)); err != nil {
		return err
	}
	if err := rt.checkMoveDst(dst); err != nil {
		return err
	}
	rt.invalidateRange(p, dst, dstOff, int64(rows-1)*dstStride+int64(rowBytes))
	rt.chargeOverhead(p)
	return rt.withRetry(p, "move_data_2d", func() error {
		return rt.move2DOnce(p, dst, src, dstOff, dstStride, srcOff, srcStride, rows, rowBytes)
	})
}

// move2DOnce is one attempt of MoveData2D. The whole block is one
// injectable unit: a fault aborts the attempt and the retry re-issues every
// row, which matches how a failed scatter/gather DMA is re-queued whole.
// Like moveOnce's, a file row is its charge then its copy, and phantom
// mode skips the copies.
func (rt *Runtime) move2DOnce(p *sim.Proc, dst *Buffer, src *Buffer,
	dstOff, dstStride, srcOff, srcStride int64, rows int, rowBytes int) error {
	if err := rt.faultTransfer(p, src, dst, int64(rows)*int64(rowBytes)); err != nil {
		return err
	}
	copies := !rt.opts.Phantom
	start := p.Now()
	row := int64(rowBytes)
	var cat trace.Category
	var err error
	switch {
	case src.file != nil && dst.file == nil:
		cat = trace.IO
		for r := int64(0); r < int64(rows) && err == nil; r++ {
			s, d := srcOff+r*srcStride, dstOff+r*dstStride
			if err = src.file.Charge(p, device.Read, s, row); err == nil && copies {
				err = src.file.Peek(dst.data[d:d+row], s)
			}
		}
	case src.file == nil && dst.file != nil:
		cat = trace.IO
		for r := int64(0); r < int64(rows) && err == nil; r++ {
			s, d := srcOff+r*srcStride, dstOff+r*dstStride
			if err = dst.file.Charge(p, device.Write, d, row); err == nil && copies {
				err = dst.file.Preload(src.data[s:s+row], d)
			}
		}
	case src.file != nil && dst.file != nil:
		cat = trace.IO
		var tmp []byte
		if copies {
			tmp = rt.getScratch(row)
		}
		for r := int64(0); r < int64(rows) && err == nil; r++ {
			s, d := srcOff+r*srcStride, dstOff+r*dstStride
			if err = src.file.Charge(p, device.Read, s, row); err == nil && copies {
				err = src.file.Peek(tmp, s)
			}
			if err == nil {
				err = dst.file.Charge(p, device.Write, d, row)
			}
			if err == nil && copies {
				err = dst.file.Preload(tmp, d)
			}
		}
		rt.putScratch(tmp)
	default:
		cat = trace.Transfer
		if copies {
			err = xfer.Copy2D(dst.data, dstOff, dstStride, src.data, srcOff, srcStride, rows, rowBytes)
		}
		if err == nil {
			rt.link(src, dst).Transfer(p, src.node.Mem, dst.node.Mem, int64(rows)*row)
			// Non-contiguous layouts pay a per-row descriptor cost on the
			// DMA path — the reason §VI's layout transformation wins once
			// data is reused enough.
			if srcStride != row || dstStride != row {
				per := src.node.Mem.Profile().Latency
				if l := dst.node.Mem.Profile().Latency; l > per {
					per = l
				}
				p.Sleep(sim.Time(rows) * per)
			}
		}
	}
	rt.chargeSpan(p, moveLane(cat, dst, src), cat, spanMove2D, start, p.Now(), int64(rows)*row)
	return err
}

// link selects the interconnect for a memory-to-memory move: PCIe when a
// GPU device memory is involved, the host DMA engine otherwise.
func (rt *Runtime) link(src, dst *Buffer) *device.Link {
	if src.node.Kind() == device.KindGPUMem || dst.node.Kind() == device.KindGPUMem {
		return rt.pcie
	}
	return rt.dma
}

// scratchPoolSlots bounds how many recycled file-to-file staging buffers
// the runtime keeps; the pool exists so a retried move (or a hot loop of
// them) does not re-allocate its n-byte scratch on every attempt.
const scratchPoolSlots = 4

// getScratch returns an n-byte staging buffer, recycling a pooled one when
// any is large enough. Concurrent tasks simply take distinct entries (or
// fresh ones when the pool runs dry), so a buffer is never shared while a
// blocking I/O charge is in flight.
func (rt *Runtime) getScratch(n int64) []byte {
	for i := len(rt.scratch) - 1; i >= 0; i-- {
		if int64(cap(rt.scratch[i])) >= n {
			b := rt.scratch[i]
			rt.scratch = append(rt.scratch[:i], rt.scratch[i+1:]...)
			return b[:n]
		}
	}
	return make([]byte, n)
}

// putScratch returns a staging buffer to the pool, evicting the smallest
// entry when full so the pool converges on the largest recent sizes.
func (rt *Runtime) putScratch(b []byte) {
	if cap(b) == 0 {
		return
	}
	if len(rt.scratch) < scratchPoolSlots {
		rt.scratch = append(rt.scratch, b)
		return
	}
	smallest := 0
	for i := 1; i < len(rt.scratch); i++ {
		if cap(rt.scratch[i]) < cap(rt.scratch[smallest]) {
			smallest = i
		}
	}
	if cap(rt.scratch[smallest]) < cap(b) {
		rt.scratch[smallest] = b
	}
}

// checkMove validates handles and ranges common to all move variants.
func checkMove(dst, src *Buffer, dstOff, srcOff, n int64) error {
	if dst == nil || src == nil {
		return fmt.Errorf("core: move with nil buffer")
	}
	if dst.released || src.released {
		return fmt.Errorf("core: move with released buffer")
	}
	if n < 0 {
		return fmt.Errorf("core: move of %d bytes", n)
	}
	if srcOff < 0 || srcOff+n > src.size {
		return fmt.Errorf("core: move source range [%d,%d) outside buffer of %d bytes",
			srcOff, srcOff+n, src.size)
	}
	if dstOff < 0 || dstOff+n > dst.size {
		return fmt.Errorf("core: move destination range [%d,%d) outside buffer of %d bytes",
			dstOff, dstOff+n, dst.size)
	}
	return nil
}
