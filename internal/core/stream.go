package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/topo"
	"repro/internal/trace"
)

// This file implements streamed (multi-stage, pipelined) moves: a multi-hop
// move split into S sub-chunks, each hop driven by its own sim.Proc, with
// bounded double-buffered staging rings at the intermediate nodes. Hop k of
// sub-chunk i overlaps hop k-1 of sub-chunk i+1, so disk->DRAM and
// DRAM->GPU bandwidth are in flight simultaneously inside a single logical
// move — the paper's §III-C multi-stage data transfer, generalized to any
// ancestor/descendant pair of the tree.
//
// Ring protocol. Every intermediate node j holds depth staging slots (plain
// runtime buffers, so allocation pressure and cache relief apply as usual)
// and two FIFO credit channels: free[j] carries empty-slot indices (seeded
// with all slots), full[j] carries filled-slot indices. The hop feeding
// node j takes a credit from free[j], moves a sub-chunk into that slot with
// the ordinary MoveData (same retry, invalidation, charge and trace path as
// a monolithic move), and posts the slot to full[j]; the hop draining node
// j does the reverse. Slots cannot be overwritten while still being read —
// a writer cannot touch a slot until its index has traveled the full
// free-channel round trip — and channel FIFO order plus the deterministic
// engine makes the whole interleaving reproducible bit-for-bit.
//
// Failure drain. The first error is latched (errOnce) and every later
// sub-chunk move is skipped, but each hop still cycles all count tokens
// through its rings, so no proc is left blocked and the engine terminates
// deterministically; per-sub-chunk faults inside a hop are retried by
// MoveData itself and a re-attempt re-copies the same bytes.

// StreamOptions tunes a streamed move. The zero value asks the adaptive
// sizer to pick the sub-chunk count from the device profiles along the
// path and uses double-buffered (depth 2) staging rings.
type StreamOptions struct {
	// SubChunks fixes the number of sub-chunks. 0 means adaptive: the sizer
	// balances per-hop service times from the device/link profiles
	// (stream.Size) and degenerates to 1 when splitting cannot help.
	SubChunks int
	// SubChunkBytes fixes the sub-chunk size instead; it takes precedence
	// over SubChunks when both are set.
	SubChunkBytes int64
	// Depth is the number of staging slots per intermediate node. 0 means 2
	// (double buffering).
	Depth int
	// MaxSubChunks caps the adaptive sizer's search. 0 means 32.
	MaxSubChunks int
	// MinSubChunkBytes floors the adaptive sub-chunk size so latency-bound
	// slivers are never profitable. 0 means 256 KiB.
	MinSubChunkBytes int64
	// OnChunk, when set, is invoked at the destination node as each
	// sub-chunk lands (index i, payload range [off, off+n) relative to the
	// move), on its own proc — compute overlaps the remaining transfers.
	// An error aborts the stream after the in-flight sub-chunks drain.
	OnChunk func(sub *Ctx, i int, off, n int64) error
}

const (
	defaultStreamDepth       = 2
	defaultStreamMaxChunks   = 32
	defaultStreamMinSubChunk = 256 << 10
)

// StreamStats counts streamed-move activity.
type StreamStats struct {
	// Streams is the number of streamed moves issued (including ones that
	// degenerated to a single monolithic hop).
	Streams int64
	// SubChunks is the total number of sub-chunks across all streams.
	SubChunks int64
	// HopMoves is the number of per-hop sub-chunk moves driven.
	HopMoves int64
	// AsyncHops counts the sub-chunk moves driven on the engine's
	// inline-callback fast path (single-hop pumps) rather than by a
	// dedicated hop process.
	AsyncHops int64
	// Bytes is the total payload delivered by streamed moves.
	Bytes int64
	// MaxInFlight is the high-water mark of sub-chunks simultaneously in
	// the pipe (entered hop 0, not yet landed).
	MaxInFlight int64
	// MaxRing is the high-water mark of staging-ring occupancy.
	MaxRing int64
}

// Any reports whether any streamed move ran.
func (s StreamStats) Any() bool { return s.Streams > 0 }

func (s StreamStats) String() string {
	return fmt.Sprintf("streams %d | sub-chunks %d | hop moves %d | %d MiB | max in-flight %d | max ring %d",
		s.Streams, s.SubChunks, s.HopMoves, s.Bytes>>20, s.MaxInFlight, s.MaxRing)
}

// StreamStats returns the accumulated streamed-move counters.
func (rt *Runtime) StreamStats() StreamStats { return rt.streamStats }

// streamHopAgg accumulates achieved-bandwidth inputs for one hop,
// keyed by the hop's destination node.
type streamHopAgg struct {
	bytes int64
	busy  sim.Time
}

// MoveDataDownStreamed moves src[srcOff:srcOff+n) on the current node into
// dst on a strict descendant, streamed: the move is split into sub-chunks
// that traverse every intermediate level through double-buffered staging
// rings, so all hops (and the optional OnChunk consumer) overlap. Results
// are bit-identical to a chain of monolithic MoveData hops.
func (c *Ctx) MoveDataDownStreamed(dst, src *Buffer, dstOff, srcOff, n int64, o StreamOptions) error {
	if err := checkMove(dst, src, dstOff, srcOff, n); err != nil {
		return err
	}
	if src.node != c.node || !nodeIsProperDescendant(dst.node, c.node) {
		return fmt.Errorf("core: move_data_down_streamed from %v must go to a descendant of %v (got %v -> %v)",
			c.node, c.node, src.node, dst.node)
	}
	return c.rt.moveDataStreamed(c, dst, src, dstOff, srcOff, n, o)
}

// MoveDataUpStreamed is the ascending mirror: src on a strict descendant of
// the current node streams up into dst on the current node.
func (c *Ctx) MoveDataUpStreamed(dst, src *Buffer, dstOff, srcOff, n int64, o StreamOptions) error {
	if err := checkMove(dst, src, dstOff, srcOff, n); err != nil {
		return err
	}
	if dst.node != c.node || !nodeIsProperDescendant(src.node, c.node) {
		return fmt.Errorf("core: move_data_up_streamed to %v must come from a descendant of %v (got %v -> %v)",
			c.node, c.node, src.node, dst.node)
	}
	return c.rt.moveDataStreamed(c, dst, src, dstOff, srcOff, n, o)
}

// nodeIsProperDescendant reports whether n is a strict descendant of anc.
func nodeIsProperDescendant(n, anc *topo.Node) bool {
	for x := n.Parent; x != nil; x = x.Parent {
		if x == anc {
			return true
		}
	}
	return false
}

// streamPath returns the node chain [from ... to] walking tree edges, or
// nil when the endpoints are not on one root-to-leaf line.
func streamPath(from, to *topo.Node) []*topo.Node {
	if from == to {
		return []*topo.Node{from}
	}
	if nodeIsProperDescendant(to, from) { // down: to is deeper
		var rev []*topo.Node
		for x := to; x != from; x = x.Parent {
			rev = append(rev, x)
		}
		rev = append(rev, from)
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return rev
	}
	if nodeIsProperDescendant(from, to) { // up: from is deeper
		var path []*topo.Node
		for x := from; x != to; x = x.Parent {
			path = append(path, x)
		}
		return append(path, to)
	}
	return nil
}

// hopProfile folds the device and link profiles of one tree edge into the
// effective (latency, bandwidth) pair the sizer models, mirroring exactly
// what moveOnce charges on that edge.
func (rt *Runtime) hopProfile(src, dst *topo.Node) stream.Hop {
	sp, dp := src.Mem.Profile(), dst.Mem.Profile()
	h := stream.Hop{Name: sp.Name + "->" + dp.Name}
	switch {
	case src.Kind().IsFileStore() && !dst.Kind().IsFileStore():
		h.Latency, h.BW = sp.Latency, sp.ReadBW
		if dst.Kind() == device.KindGPUMem {
			h.Latency += rt.pcie.Latency
			if rt.pcie.BW < h.BW {
				h.BW = rt.pcie.BW
			}
		}
	case !src.Kind().IsFileStore() && dst.Kind().IsFileStore():
		h.Latency, h.BW = dp.Latency, dp.WriteBW
		if src.Kind() == device.KindGPUMem {
			h.Latency += rt.pcie.Latency
			if rt.pcie.BW < h.BW {
				h.BW = rt.pcie.BW
			}
		}
	case src.Kind().IsFileStore() && dst.Kind().IsFileStore():
		h.Latency = sp.Latency + dp.Latency
		h.BW = sp.ReadBW
		if dp.WriteBW < h.BW {
			h.BW = dp.WriteBW
		}
	default:
		link := rt.dma
		if src.Kind() == device.KindGPUMem || dst.Kind() == device.KindGPUMem {
			link = rt.pcie
		}
		h.Latency = link.Latency
		h.BW = link.BW
		if sp.ReadBW < h.BW {
			h.BW = sp.ReadBW
		}
		if dp.WriteBW < h.BW {
			h.BW = dp.WriteBW
		}
	}
	return h
}

// streamPlan resolves the options into a concrete sub-chunking plan.
func streamPlan(hops []stream.Hop, n int64, o StreamOptions) stream.Plan {
	switch {
	case o.SubChunkBytes > 0:
		return stream.FixedBytes(hops, n, o.SubChunkBytes)
	case o.SubChunks > 0:
		return stream.Fixed(hops, n, o.SubChunks)
	}
	maxC := o.MaxSubChunks
	if maxC <= 0 {
		maxC = defaultStreamMaxChunks
	}
	minS := o.MinSubChunkBytes
	if minS <= 0 {
		minS = defaultStreamMinSubChunk
	}
	sizeHops := hops
	if o.OnChunk != nil && len(hops) > 0 {
		// The consumer is one more pipeline stage; model it as a twin of the
		// bottleneck hop (its cost is unknown, but assuming balance makes
		// overlap worth splitting for — the asymptotic win is bounded by the
		// bottleneck either way).
		bot := hops[0]
		for _, h := range hops[1:] {
			if h.ServiceTime(n) > bot.ServiceTime(n) {
				bot = h
			}
		}
		sizeHops = append(append(make([]stream.Hop, 0, len(hops)+1), hops...), bot)
	}
	return stream.Size(sizeHops, n, maxC, minS)
}

// moveDataStreamed drives a streamed move along the tree path between
// src.node and dst.node. The caller has validated buffer ranges and the
// ancestor/descendant relationship.
func (rt *Runtime) moveDataStreamed(c *Ctx, dst, src *Buffer, dstOff, srcOff, n int64, o StreamOptions) error {
	if err := rt.checkMoveDst(dst); err != nil {
		return err
	}
	path := streamPath(src.node, dst.node)
	if path == nil {
		return fmt.Errorf("core: streamed move endpoints %v -> %v not on one tree line", src.node, dst.node)
	}
	hops := make([]stream.Hop, len(path)-1)
	for k := range hops {
		hops[k] = rt.hopProfile(path[k], path[k+1])
	}
	plan := streamPlan(hops, n, o)
	count, nhops := plan.Count, len(hops)

	rt.streamStats.Streams++
	rt.streamStats.SubChunks += int64(count)
	rt.streamStats.Bytes += n

	// A single sub-chunk over a single hop with no consumer is exactly the
	// monolithic move; skip the machinery so timing stays identical.
	if count == 1 && nhops == 1 && o.OnChunk == nil {
		rt.streamStats.HopMoves++
		return rt.MoveData(c.p, dst, src, dstOff, srcOff, n)
	}
	rt.chargeOverhead(c.p)
	if n == 0 {
		if o.OnChunk != nil {
			return o.OnChunk(c, 0, 0, 0)
		}
		return nil
	}

	// A multi-chunk single-hop stream has no rings and no overlap: its hop
	// proc would just issue the sub-chunk moves back to back. Drive those
	// leaf, non-blocking charges through the engine's inline-callback fast
	// path instead of parking a process on each one. Gated to configurations
	// whose per-chunk sequence has no blocking side work — no consumer, no
	// fault injection or retry deadline (both may sleep/backoff), and not
	// file-to-file (its scratch staging is worth a real proc) — so the
	// timing is identical to the proc-driven loop by construction.
	if nhops == 1 && o.OnChunk == nil &&
		rt.opts.Faults == nil && rt.opts.Retry.OpTimeout <= 0 &&
		!(src.file != nil && dst.file != nil) {
		return rt.streamSingleHopAsync(c, dst, src, dstOff, srcOff, n, plan)
	}

	depth := o.Depth
	if depth < 1 {
		depth = defaultStreamDepth
	}
	if depth > count {
		depth = count
	}

	// Staging rings at the intermediate nodes path[1..nhops-1]. Slots are
	// ordinary runtime buffers, so allocation pressure triggers the same
	// cache relief as any AllocAt.
	stageBuf := make([][]*Buffer, nhops)
	free := make([]*sim.Chan, nhops)
	full := make([]*sim.Chan, nhops)
	for j := 1; j < nhops; j++ {
		free[j] = sim.NewChan(rt.engine, depth)
		full[j] = sim.NewChan(rt.engine, depth)
		slots := make([]*Buffer, depth)
		for s := range slots {
			b, err := rt.AllocAt(c.p, path[j], plan.SubChunk)
			if err != nil {
				for jj := 1; jj <= j; jj++ {
					for _, sb := range stageBuf[jj] {
						if sb != nil {
							_ = rt.Release(c.p, sb)
						}
					}
				}
				return fmt.Errorf("core: streamed move staging at %v: %w", path[j], err)
			}
			slots[s] = b
			free[j].TrySend(s)
		}
		stageBuf[j] = slots
	}

	var eo errOnce
	ringOcc := make([]int64, nhops)
	wg := sim.NewWaitGroup(rt.engine)

	var landed *sim.Chan
	var consumerDone *sim.Latch
	if o.OnChunk != nil {
		landed = sim.NewChan(rt.engine, count)
		consumerDone = sim.NewLatch(rt.engine)
		rt.engine.Spawn(c.p.Name()+"-stream-consume", func(p *sim.Proc) {
			sub := &Ctx{rt: rt, p: p, node: dst.node}
			for i := 0; i < count; i++ {
				v, ok := landed.Recv(p)
				if !ok {
					break
				}
				idx := v.(int)
				if !eo.failed() {
					off, sz := plan.ChunkRange(idx)
					eo.record(o.OnChunk(sub, idx, off, sz))
				}
			}
			consumerDone.Fire()
		})
	}

	for k := 0; k < nhops; k++ {
		k := k
		wg.Add(1)
		rt.engine.Spawn(fmt.Sprintf("%s-stream-hop%d", c.p.Name(), k), func(p *sim.Proc) {
			defer wg.Done()
			for i := 0; i < count; i++ {
				if k == 0 {
					rt.noteStreamInflight(p.Now(), dst.node.ID, +1)
				}
				inSlot, outSlot := -1, -1
				if k > 0 {
					if v, ok := full[k].Recv(p); ok {
						inSlot = v.(int)
					}
				}
				if k < nhops-1 {
					if v, ok := free[k+1].Recv(p); ok {
						outSlot = v.(int)
					}
				}
				if !eo.failed() {
					sb, so := src, srcOff
					if k > 0 {
						sb, so = stageBuf[k][inSlot], 0
					} else {
						off, _ := plan.ChunkRange(i)
						so = srcOff + off
					}
					db, do := dst, dstOff
					if k < nhops-1 {
						db, do = stageBuf[k+1][outSlot], 0
					} else {
						off, _ := plan.ChunkRange(i)
						do = dstOff + off
					}
					_, sz := plan.ChunkRange(i)
					start := p.Now()
					err := rt.MoveData(p, db, sb, do, so, sz)
					rt.noteStreamHop(path[k+1].ID, start, p.Now(), sz)
					eo.record(err)
				}
				if k > 0 {
					free[k].Send(p, inSlot)
					ringOcc[k]--
					rt.noteStreamRing(p.Now(), path[k].ID, ringOcc[k])
				}
				if k < nhops-1 {
					full[k+1].Send(p, outSlot)
					ringOcc[k+1]++
					rt.noteStreamRing(p.Now(), path[k+1].ID, ringOcc[k+1])
				}
				if k == nhops-1 {
					rt.noteStreamInflight(p.Now(), dst.node.ID, -1)
					if landed != nil {
						landed.Send(p, i)
					}
				}
			}
		})
	}

	wg.Wait(c.p)
	if consumerDone != nil {
		consumerDone.Wait(c.p)
	}
	for j := 1; j < nhops; j++ {
		for _, b := range stageBuf[j] {
			eo.record(rt.Release(c.p, b))
		}
	}
	return eo.first()
}

// streamSingleHopAsync pumps a single-hop stream's sub-chunks through the
// engine's inline-callback path: each chunk queues its device/link charges
// with AccessAsync/TransferAsync and the completion callback starts the next
// chunk, so the whole move needs no process beyond the blocked caller. The
// per-chunk sequence (overhead, service charges, hop/in-flight notes) mirrors
// the proc-driven loop exactly; chunks are sequential either way, so elapsed
// time and charge totals are identical.
//
// The destination range is invalidated whole, up front, on the caller's
// process: releasing cache victims may sleep (per-op overhead), which a
// callback must not do. Per-chunk moves then skip re-invalidation.
func (rt *Runtime) streamSingleHopAsync(c *Ctx, dst, src *Buffer, dstOff, srcOff, n int64, plan stream.Plan) error {
	rt.invalidateRange(c.p, dst, dstOff, n)

	count := plan.Count
	dstNode := dst.node.ID
	done := sim.NewLatch(rt.engine)
	var eo errOnce

	var pump func(i int)
	pump = func(i int) {
		if i == count || eo.failed() {
			done.Fire()
			return
		}
		start := rt.engine.Now()
		rt.noteStreamInflight(start, dstNode, +1)
		off, sz := plan.ChunkRange(i)
		service := func() {
			rt.streamStats.AsyncHops++
			rt.asyncMoveOnce(dst, src, dstOff+off, srcOff+off, sz, func(err error) {
				eo.record(err)
				end := rt.engine.Now()
				rt.noteStreamHop(dstNode, start, end, sz)
				rt.noteStreamInflight(end, dstNode, -1)
				pump(i + 1)
			})
		}
		if ovh := rt.opts.OverheadPerOp; ovh > 0 {
			rt.engine.After(ovh, func() {
				rt.chargeSpan(nil, laneRuntime, trace.Runtime, spanBookkeeping, start, rt.engine.Now(), 0)
				service()
			})
		} else {
			service()
		}
	}
	pump(0)
	done.Wait(c.p)
	return eo.first()
}

// asyncMoveOnce is one attempt of MoveData on the inline-callback path,
// mirroring moveOnce's dispatch (and movePhantom's in phantom mode) charge
// for charge. The caller has validated ranges, invalidated the destination
// and charged per-op overhead, and gates on the absence of fault injection,
// retry deadlines, and file-to-file endpoints. done receives the move's
// error once every timed charge has completed; it runs as an engine callback
// and must not block.
func (rt *Runtime) asyncMoveOnce(dst, src *Buffer, dstOff, srcOff, n int64, done func(error)) {
	start := rt.engine.Now()
	phantom := rt.opts.Phantom
	finish := func(cat trace.Category, err error) {
		rt.chargeSpan(nil, moveLane(cat, dst, src), cat, spanMove, start, rt.engine.Now(), n)
		done(err)
	}
	switch {
	case src.file != nil && dst.file == nil:
		err := src.file.ChargeAsync(device.Read, srcOff, n, func() {
			var err error
			if !phantom {
				err = src.file.Peek(dst.data[dstOff:dstOff+n], srcOff)
			}
			if err == nil && dst.node.Kind() == device.KindGPUMem {
				// GPUDirect-style path: the storage read lands in device
				// memory through the PCIe link as well.
				rt.pcie.TransferAsync(nil, dst.node.Mem, n, func(sim.Time) {
					finish(trace.IO, nil)
				})
				return
			}
			finish(trace.IO, err)
		})
		if err != nil {
			finish(trace.IO, err)
		}
	case src.file == nil && dst.file != nil:
		write := func() {
			err := dst.file.ChargeAsync(device.Write, dstOff, n, func() {
				var err error
				if !phantom {
					err = dst.file.Preload(src.data[srcOff:srcOff+n], dstOff)
				}
				finish(trace.IO, err)
			})
			if err != nil {
				finish(trace.IO, err)
			}
		}
		if src.node.Kind() == device.KindGPUMem {
			rt.pcie.TransferAsync(src.node.Mem, nil, n, func(sim.Time) { write() })
			return
		}
		write()
	default: // memory to memory (file-to-file is gated out by the caller)
		if !phantom {
			copy(dst.data[dstOff:dstOff+n], src.data[srcOff:srcOff+n])
		}
		rt.link(src, dst).TransferAsync(src.node.Mem, dst.node.Mem, n, func(sim.Time) {
			finish(trace.Transfer, nil)
		})
	}
}

// noteStreamHop records one per-hop sub-chunk move: a structural span on
// the destination node's stream lane (category None, so the underlying
// MoveData's charge remains the single accounting point and event totals
// still equal the Breakdown), plus the achieved-bandwidth aggregate.
func (rt *Runtime) noteStreamHop(dstNode int, start, end sim.Time, n int64) {
	rt.streamStats.HopMoves++
	agg := rt.streamHops[dstNode]
	if agg == nil {
		agg = &streamHopAgg{}
		rt.streamHops[dstNode] = agg
	}
	agg.bytes += n
	agg.busy += end - start
	rt.emitSpan(nil, trace.Lane{Node: dstNode, Track: trace.TrackStream}, trace.None,
		spanStreamHop, start, end, n)
}

// noteStreamInflight tracks the number of sub-chunks in the pipe. It takes
// the current virtual time rather than a process so the callback-driven
// single-hop pump can report alongside the proc-driven hop drivers.
func (rt *Runtime) noteStreamInflight(now sim.Time, dstNode int, delta int64) {
	rt.streamInflight += delta
	if rt.streamInflight > rt.streamStats.MaxInFlight {
		rt.streamStats.MaxInFlight = rt.streamInflight
	}
	// The in-flight gauge reads rt.streamInflight, so a due sample is
	// current already; taking it before the counter is published keeps the
	// sampled trace-drop count from including the counter event.
	rt.maybeSample(now)
	rt.emitCounter(trace.Lane{Node: dstNode, Track: trace.TrackStream},
		ctrStreamInflight, now, rt.streamInflight)
}

// noteStreamRing tracks one staging ring's occupancy; the registry's ring
// gauge follows the published counter.
func (rt *Runtime) noteStreamRing(now sim.Time, node int, occ int64) {
	if occ > rt.streamStats.MaxRing {
		rt.streamStats.MaxRing = occ
	}
	rt.emitCounter(trace.Lane{Node: node, Track: trace.TrackStream}, ctrStreamRing, now, occ)
}
