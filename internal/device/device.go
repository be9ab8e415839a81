// Package device models the memory and storage components of a heterogeneous
// node: DRAM, die-stacked DRAM (HBM), NVM, SSD, hard disk, and GPU device
// memory, plus the interconnect links (PCIe, DMA engines) between them.
//
// A Device is a timing and capacity model only: it charges virtual time on a
// sim.Engine for each access and tracks how many bytes are reserved. The
// actual payload bytes live in runtime buffers (package core) or simulated
// files (package storage); keeping function and timing separate lets kernels
// operate on ordinary Go slices at full host speed while the clock still
// reflects the modeled hardware.
//
// Access timing follows a first-order queueing model, the same one the paper
// itself uses for its faster-storage projection (§V-D): a request occupies
// one of the device's service slots for latency + size/bandwidth, with an
// extra seek penalty for discontiguous accesses on mechanical drives.
//
// A charge is either blocking (Access, Link.Transfer: the calling process
// queues and sleeps) or asynchronous (AccessAsync, Link.TransferAsync: a
// caller-owned Request queues and completes on engine callbacks). Both kinds
// share one FIFO per device or link, so they can be mixed freely; an
// asynchronous charge allocates nothing, since its continuations belong to
// the Request and are bound once.
package device

import (
	"fmt"

	"repro/internal/sim"
)

// Kind classifies a device. It plays the role of the paper's storage_type
// field (Listing 1): the unified move_data dispatches on the Kinds of the
// source and destination tree nodes.
type Kind int

const (
	// KindMem is byte-addressable host memory (DRAM).
	KindMem Kind = iota
	// KindHBM is die-stacked, high-bandwidth memory.
	KindHBM
	// KindNVM is byte-addressable non-volatile memory.
	KindNVM
	// KindSSD is a flash-based block storage device.
	KindSSD
	// KindHDD is a mechanical disk drive.
	KindHDD
	// KindGPUMem is a GPU's private device memory.
	KindGPUMem
)

// String returns the conventional short name of the kind.
func (k Kind) String() string {
	switch k {
	case KindMem:
		return "mem"
	case KindHBM:
		return "hbm"
	case KindNVM:
		return "nvm"
	case KindSSD:
		return "ssd"
	case KindHDD:
		return "hdd"
	case KindGPUMem:
		return "gpumem"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// IsFileStore reports whether the kind is accessed through file-style I/O
// (open/read/write) rather than load/store, mirroring the paper's FILE_TYPE
// versus MEM_TYPE distinction.
func (k Kind) IsFileStore() bool { return k == KindSSD || k == KindHDD }

// Profile describes a device's performance characteristics. All bandwidths
// are in bytes per second.
type Profile struct {
	Name     string
	Kind     Kind
	Capacity int64 // usable bytes

	ReadBW  float64 // sequential read bandwidth
	WriteBW float64 // sequential write bandwidth

	// Latency is the fixed per-request cost (controller / syscall / DMA
	// setup). SeekTime is charged additionally on mechanical devices when a
	// request is not sequential with the previous one.
	Latency  sim.Time
	SeekTime sim.Time

	// Parallelism is how many requests proceed concurrently at full
	// bandwidth (e.g. DRAM channels). Zero means 1.
	Parallelism int
}

// Op distinguishes read and write accesses.
type Op int

const (
	// Read is a device read access.
	Read Op = iota
	// Write is a device write access.
	Write
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// IORecord describes one completed device access. The §V-D emulator replays
// sequences of these records under different bandwidth assumptions.
type IORecord struct {
	Device string
	Op     Op
	Bytes  int64
	Seek   bool
	Time   sim.Time // service time actually charged (excluding queueing)
}

// Device is a simulated memory or storage component.
type Device struct {
	noCopy noCopy

	engine *sim.Engine
	server *sim.Resource

	profile Profile
	used    int64
	lastEnd int64 // end offset of the previous access, for the seek model

	// accounting
	readBytes, writeBytes int64
	readTime, writeTime   sim.Time
	recorder              func(IORecord)
}

// noCopy makes accidental copying of a Device a `go vet -copylocks` error.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// New creates a device bound to the engine.
func New(e *sim.Engine, p Profile) *Device {
	if p.Capacity <= 0 {
		panic(fmt.Sprintf("device %q: non-positive capacity", p.Name))
	}
	par := p.Parallelism
	if par < 1 {
		par = 1
	}
	return &Device{
		engine:  e,
		server:  sim.NewResource(e, par),
		profile: p,
	}
}

// Profile returns the device's performance description.
func (d *Device) Profile() Profile { return d.profile }

// Name returns the profile name.
func (d *Device) Name() string { return d.profile.Name }

// Kind returns the device kind.
func (d *Device) Kind() Kind { return d.profile.Kind }

// Capacity returns the total usable bytes.
func (d *Device) Capacity() int64 { return d.profile.Capacity }

// Used returns the bytes currently reserved by Reserve.
func (d *Device) Used() int64 { return d.used }

// Free returns the bytes available for Reserve.
func (d *Device) Free() int64 { return d.profile.Capacity - d.used }

// SetRecorder installs a hook that receives an IORecord for every access.
// Pass nil to disable.
func (d *Device) SetRecorder(fn func(IORecord)) { d.recorder = fn }

// ErrCapacity is returned when a reservation would exceed device capacity.
type ErrCapacity struct {
	Device   string
	Need     int64
	Free     int64
	Capacity int64
}

func (e *ErrCapacity) Error() string {
	return fmt.Sprintf("device %s: need %d bytes, %d free of %d",
		e.Device, e.Need, e.Free, e.Capacity)
}

// Reserve marks n bytes as in use. It fails with *ErrCapacity when the
// device cannot hold them.
func (d *Device) Reserve(n int64) error {
	if n < 0 {
		return fmt.Errorf("device %s: negative reservation %d", d.profile.Name, n)
	}
	if d.used+n > d.profile.Capacity {
		return &ErrCapacity{Device: d.profile.Name, Need: n,
			Free: d.Free(), Capacity: d.profile.Capacity}
	}
	d.used += n
	return nil
}

// Unreserve releases n bytes previously reserved.
func (d *Device) Unreserve(n int64) {
	if n < 0 || n > d.used {
		panic(fmt.Sprintf("device %s: unreserve %d with %d used", d.profile.Name, n, d.used))
	}
	d.used -= n
}

// ServiceTime returns the raw service time for an access, excluding
// queueing: fixed latency, plus a seek penalty if the device has one and the
// access is discontiguous, plus size over bandwidth.
func (d *Device) ServiceTime(op Op, offset, n int64, seek bool) sim.Time {
	t := d.profile.Latency
	if seek && d.profile.SeekTime > 0 {
		t += d.profile.SeekTime
	}
	bw := d.profile.ReadBW
	if op == Write {
		bw = d.profile.WriteBW
	}
	return t + sim.TransferTime(n, bw)
}

// Access performs a timed access of n bytes at the given offset: the calling
// process queues for one of the device's service slots and holds it for the
// service time. It returns the service time charged (excluding queueing).
func (d *Device) Access(p *sim.Proc, op Op, offset, n int64) sim.Time {
	d.server.Acquire(p)
	t, seek := d.startService(op, offset, n)
	p.Sleep(t)
	d.server.Release()
	d.endService(op, n, seek, t)
	return t
}

// AccessAsync performs the same timed access as Access without a driving
// process, on the caller-owned request r: it queues for a service slot via
// the inline-callback path, holds it for the service time with an engine
// timer, and invokes done with the service time charged once the access
// completes. done runs as an engine callback and must not block. The seek
// model, slot FIFO position, and accounting are identical to Access, so
// proc-driven and callback-driven requests can share one device without
// perturbing each other's timing.
func (d *Device) AccessAsync(r *Request, op Op, offset, n int64, done func(sim.Time)) {
	r.start(d.engine, d.server, done)
	r.dev, r.op, r.off, r.n = d, op, offset, n
	d.server.AcquireAsync(r.grant)
}

// startService begins an access that holds a service slot: sequentiality is
// judged at service start, since an interleaved request may have moved the
// head while this one queued. It returns the service time and whether the
// access seeks.
func (d *Device) startService(op Op, offset, n int64) (t sim.Time, seek bool) {
	seek = d.profile.SeekTime > 0 && offset != d.lastEnd
	d.lastEnd = offset + n
	return d.ServiceTime(op, offset, n, seek), seek
}

// endService accounts a completed access per direction and hands it to
// the recorder.
func (d *Device) endService(op Op, n int64, seek bool, t sim.Time) {
	if op == Read {
		d.readBytes += n
		d.readTime += t
	} else {
		d.writeBytes += n
		d.writeTime += t
	}
	if d.recorder != nil {
		d.recorder(IORecord{Device: d.profile.Name, Op: op, Bytes: n, Seek: seek, Time: t})
	}
}

// Stats reports cumulative traffic and busy time per direction.
func (d *Device) Stats() (readBytes, writeBytes int64, readTime, writeTime sim.Time) {
	return d.readBytes, d.writeBytes, d.readTime, d.writeTime
}

// QueueStats reports contention at the device's service queue: total
// requests, how many queued behind another request, and the cumulative
// queueing delay — the first-order view of a saturated component.
func (d *Device) QueueStats() (requests, queued int64, waitTotal sim.Time) {
	return d.server.QueueStats()
}

// ResetStats zeroes the cumulative counters (reservations are unaffected).
func (d *Device) ResetStats() {
	d.readBytes, d.writeBytes = 0, 0
	d.readTime, d.writeTime = 0, 0
}

// Link models an interconnect (PCIe, on-package fabric) between two memory
// spaces. Transfers across a link are bottlenecked by the slowest of the
// link and the two endpoint devices, and occupy one link slot for the
// duration, which is how OpenCL H2D/D2H transfers serialize on PCIe.
type Link struct {
	Name    string
	BW      float64  // bytes per second
	Latency sim.Time // per-transfer setup cost

	engine *sim.Engine
	server *sim.Resource
}

// NewLink creates a link with the given parallelism (number of concurrent
// transfers at full bandwidth; duplex links use 2).
func NewLink(e *sim.Engine, name string, bw float64, latency sim.Time, parallelism int) *Link {
	if parallelism < 1 {
		parallelism = 1
	}
	return &Link{Name: name, BW: bw, Latency: latency,
		engine: e, server: sim.NewResource(e, parallelism)}
}

// Transfer moves n bytes between src and dst across the link, charging the
// calling process for setup latency plus the bottleneck bandwidth time.
// Either endpoint may be nil (meaning "not a modeled bottleneck").
func (l *Link) Transfer(p *sim.Proc, src, dst *Device, n int64) sim.Time {
	t := l.transferTime(src, dst, n)
	l.server.Use(p, t)
	return t
}

// TransferAsync is Transfer without a driving process, on the caller-owned
// request r: it queues for a link slot via the inline-callback path,
// occupies it for the transfer time with an engine timer, and invokes done
// with the time charged. done runs as an engine callback and must not
// block.
func (l *Link) TransferAsync(r *Request, src, dst *Device, n int64, done func(sim.Time)) {
	r.start(l.engine, l.server, done)
	r.t = l.transferTime(src, dst, n)
	l.server.AcquireAsync(r.grant)
}

// transferTime is the setup latency plus n bytes at the slowest of the
// link's bandwidth, src's read bandwidth and dst's write bandwidth.
func (l *Link) transferTime(src, dst *Device, n int64) sim.Time {
	bw := l.BW
	if src != nil && src.profile.ReadBW > 0 && src.profile.ReadBW < bw {
		bw = src.profile.ReadBW
	}
	if dst != nil && dst.profile.WriteBW > 0 && dst.profile.WriteBW < bw {
		bw = dst.profile.WriteBW
	}
	return l.Latency + sim.TransferTime(n, bw)
}

// Request is one asynchronous charge on a Device (AccessAsync) or a Link
// (TransferAsync), owned by the caller that starts it. Its slot-grant and
// completion continuations are bound the first time it is used and kept,
// so a charge allocates nothing. The zero value is ready to use. A request
// carries one charge at a time: starting a charge on it while one is in
// flight panics. It clears its state before calling done, so done may
// start the next charge on it.
type Request struct {
	noCopy noCopy

	engine *sim.Engine
	server *sim.Resource // the slot queue; nil while the request is idle
	dev    *Device       // the accessed device; nil for a link transfer
	op     Op
	off, n int64
	t      sim.Time // the service time: a link's at start, an access's at slot grant
	seek   bool
	done   func(sim.Time)

	grant, finish func() // granted and finished, bound once
}

// start claims the request for one charge queued on server.
func (r *Request) start(e *sim.Engine, server *sim.Resource, done func(sim.Time)) {
	if r.server != nil {
		panic("device: request reused while a charge is in flight")
	}
	if r.grant == nil {
		r.grant, r.finish = r.granted, r.finished
	}
	r.engine, r.server, r.done = e, server, done
}

// granted runs holding a slot: a device access is timed at service start,
// as Access times it, then the slot is held for the service time.
func (r *Request) granted() {
	if r.dev != nil {
		r.t, r.seek = r.dev.startService(r.op, r.off, r.n)
	}
	r.engine.After(r.t, r.finish)
}

// finished releases the slot, accounts a device access, and hands the
// time charged to done with the request already idle.
func (r *Request) finished() {
	r.server.Release()
	if r.dev != nil {
		r.dev.endService(r.op, r.n, r.seek, r.t)
	}
	t, done := r.t, r.done
	r.server, r.dev, r.done = nil, nil, nil
	if done != nil {
		done(t)
	}
}
