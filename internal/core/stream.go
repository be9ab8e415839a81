package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/topo"
	"repro/internal/trace"
)

// This file implements streamed (multi-stage, pipelined) moves: a move
// along one root-to-leaf line of the tree, split into S sub-chunks that
// pass every intermediate node through a bounded ring of staging slots, so
// hop k of sub-chunk i overlaps hop k-1 of sub-chunk i+1 and disk->DRAM and
// DRAM->GPU bandwidth are in flight at once inside one logical move — the
// paper's §III-C multi-stage data transfer, generalized to any
// ancestor/descendant pair of the tree.
//
// One pump. Every streamed move runs on engine callbacks; no hop has a
// process. Each intermediate node holds depth staging slots (plain runtime
// buffers, so allocation pressure and cache relief apply as usual), used
// round-robin: sub-chunk i occupies slot i mod depth. Hop k starts
// sub-chunk i once its input slot is full and its output slot is free —
// the firing rule of a dataflow stage — and moves it with asyncMove,
// MoveData on callbacks (move.go: the same invalidation, bookkeeping,
// fault draws, charges and retries as a monolithic move); landing it frees
// the input slot for hop k-1 and fills the output slot for hop k+1. A slot
// is never overwritten while still being read.
//
// Event order. The pump keeps the schedule of a pump that drives each hop
// with its own process and passes slots through FIFO channels, the
// schedule the committed figures and sweeps were measured with: where such
// a hop process would be woken (its start, or a slot it had to wait for),
// the pump continues in a same-instant engine callback queued at that
// point; where it would run on, the pump continues inline; and the caller
// resumes when the last hop finishes. TestStreamGolden pins that schedule.
// Only an OnChunk consumer gets a process, since it may block.
//
// Failure drain. The first error is latched (errOnce) and every later
// sub-chunk move is skipped, but each hop still cycles every sub-chunk's
// slots, so the pump always finishes; per-sub-chunk faults are retried by
// the move itself, and a re-attempt re-copies the same bytes.

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
	// AsyncHops equals HopMoves: every hop move runs on engine callbacks.
	//
	// Deprecated: use HopMoves. The field stays only because the benchmark
	// harness (module northup-benchmark) still reads it.
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
func (rt *Runtime) StreamStats() StreamStats {
	s := rt.streamStats
	s.AsyncHops = s.HopMoves
	return s
}

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

	depth := o.Depth
	if depth < 1 {
		depth = defaultStreamDepth
	}
	if depth > count {
		depth = count
	}
	s := &streamPump{rt: rt, dst: dst, src: src, dstOff: dstOff, srcOff: srcOff,
		plan: plan, path: path, onChunk: o.OnChunk, running: nhops,
		hops: make([]streamHop, nhops), stage: make([][]*Buffer, nhops),
		done: sim.NewLatch(rt.engine)}
	// Staging slots at the intermediate nodes path[1..nhops-1] are ordinary
	// runtime buffers, so allocation pressure triggers the same cache
	// relief as any AllocAt.
	for j := 1; j < nhops; j++ {
		for len(s.stage[j]) < depth {
			b, err := rt.AllocAt(c.p, path[j], plan.SubChunk)
			if err != nil {
				for _, slots := range s.stage[1 : j+1] {
					for _, sb := range slots {
						_ = rt.Release(c.p, sb)
					}
				}
				return fmt.Errorf("core: streamed move staging at %v: %w", path[j], err)
			}
			s.stage[j] = append(s.stage[j], b)
		}
	}
	if o.OnChunk != nil {
		s.landed = sim.NewChan(rt.engine, count)
		s.consumed = sim.NewLatch(rt.engine)
		rt.engine.Spawn(c.p.Name()+"-stream-consume", s.consume)
	}
	for k := range s.hops {
		h := &s.hops[k]
		h.s, h.k, h.room = s, k, depth
		h.resume, h.mv = h.step, newAsyncMove(rt, h.moved)
		rt.engine.At(rt.engine.Now(), h.resume)
	}

	s.done.Wait(c.p)
	if s.consumed != nil {
		s.consumed.Wait(c.p)
	}
	for _, slots := range s.stage[1:] {
		for _, b := range slots {
			s.eo.record(rt.Release(c.p, b))
		}
	}
	return s.eo.first()
}

// streamPump is the state of one streamed move. It and every callback its
// hops hand the engine are allocated once per move, so driving a sub-chunk
// allocates nothing in the pump.
type streamPump struct {
	rt             *Runtime
	dst, src       *Buffer
	dstOff, srcOff int64
	plan           stream.Plan
	path           []*topo.Node
	onChunk        func(sub *Ctx, i int, off, n int64) error
	hops           []streamHop
	stage          [][]*Buffer // stage[j]: the slots at path[j], 0 < j < len(hops)
	running        int         // hops not yet finished
	eo             errOnce
	done           *sim.Latch // fired when the last hop finishes
	landed         *sim.Chan  // landed sub-chunk indices, for the OnChunk consumer
	consumed       *sim.Latch // fired when the consumer returns
}

// consume is the OnChunk consumer's process: it runs the consumer on each
// sub-chunk as it lands, in order, until the stream fails.
func (s *streamPump) consume(p *sim.Proc) {
	sub := &Ctx{rt: s.rt, p: p, node: s.dst.node}
	for i := 0; i < s.plan.Count; i++ {
		v, _ := s.landed.Recv(p)
		if idx := v.(int); !s.eo.failed() {
			off, sz := s.plan.ChunkRange(idx)
			s.eo.record(s.onChunk(sub, idx, off, sz))
		}
	}
	s.consumed.Fire()
}

// streamHop is hop k of a pump, the edge path[k] -> path[k+1], moving the
// sub-chunks through it in order.
type streamHop struct {
	s          *streamPump
	k          int
	i          int        // the sub-chunk in hand
	entered    bool       // sub-chunk i has entered the hop
	in, out    bool       // sub-chunk i holds its input / output slot
	full, room int        // slots ready to take: filled at path[k], free at path[k+1]
	ring       int64      // filled slots at path[k], including one being read
	parked     *int       // the count the hop waits on, nil while it runs
	start      sim.Time   // when sub-chunk i's move began
	mv         *asyncMove // the hop's MoveData
	resume     func()     // step, bound once: the hop's wake-up callback
}

// step runs the hop from where it stopped: for each sub-chunk it takes the
// input and output slots, parking while one is missing, and starts the
// sub-chunk's move, whose completion (moved) steps on inline.
func (h *streamHop) step() {
	s := h.s
	last := len(s.hops) - 1
	for h.i < s.plan.Count {
		if !h.entered {
			h.entered = true
			if h.k == 0 {
				s.rt.noteStreamInflight(s.rt.engine.Now(), s.dst.node.ID, +1)
			}
		}
		if h.k > 0 && !h.in && !h.take(&h.full, &h.in) {
			return
		}
		if h.k < last && !h.out && !h.take(&h.room, &h.out) {
			return
		}
		if s.eo.failed() {
			h.post()
			continue
		}
		off, sz := s.plan.ChunkRange(h.i)
		src, so := s.src, s.srcOff+off
		if h.k > 0 {
			src, so = s.stage[h.k][h.i%len(s.stage[h.k])], 0
		}
		dst, do := s.dst, s.dstOff+off
		if h.k < last {
			dst, do = s.stage[h.k+1][h.i%len(s.stage[h.k+1])], 0
		}
		h.start = s.rt.engine.Now()
		h.mv.begin(dst, src, do, so, sz)
		return
	}
	if s.running--; s.running == 0 {
		s.done.Fire()
	}
}

// take takes a slot counted by *n, or parks the hop on *n.
func (h *streamHop) take(n *int, held *bool) bool {
	if *n == 0 {
		h.parked = n
		return false
	}
	*n--
	*held = true
	return true
}

// give adds a slot to *n of hop h, waking h in a same-instant callback if
// it is parked on *n.
func (h *streamHop) give(n *int) {
	*n++
	if h.parked == n {
		h.parked = nil
		h.s.rt.engine.At(h.s.rt.engine.Now(), h.resume)
	}
}

// moved is the hop's move-completion callback.
func (h *streamHop) moved(err error) {
	s := h.s
	_, sz := s.plan.ChunkRange(h.i)
	s.rt.noteStreamHop(s.path[h.k+1].ID, h.start, s.rt.engine.Now(), sz)
	s.eo.record(err)
	h.post()
	h.step()
}

// post passes sub-chunk i's slots on — the input slot back to hop k-1, the
// output slot to hop k+1 — or, at the last hop, notes it landed; then the
// hop readies itself for sub-chunk i+1.
func (h *streamHop) post() {
	s, now := h.s, h.s.rt.engine.Now()
	if h.k > 0 {
		prev := &s.hops[h.k-1]
		prev.give(&prev.room)
		h.ring--
		s.rt.noteStreamRing(now, s.path[h.k].ID, h.ring)
	}
	if h.k < len(s.hops)-1 {
		next := &s.hops[h.k+1]
		next.give(&next.full)
		next.ring++
		s.rt.noteStreamRing(now, s.path[h.k+1].ID, next.ring)
	} else {
		s.rt.noteStreamInflight(now, s.dst.node.ID, -1)
		if s.landed != nil {
			s.landed.TrySend(h.i)
		}
	}
	h.i++
	h.entered, h.in, h.out = false, false, false
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

// noteStreamInflight tracks the number of sub-chunks in the pipe at virtual
// time now.
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
