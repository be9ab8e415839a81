package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// This file interposes the staging cache (package cache) on the move path.
// The paper's one explicit reuse optimization — §IV-A's "the row shard is
// reused across column shards" — is generalized here into a runtime
// concern: repeated MoveDataDown of the same source extent is served from a
// resident buffer at the child level instead of re-crossing the storage
// edge. Entries are keyed by (source buffer ID, offset, length), capacity
// is managed by LRU eviction plus explicit pinning, and a lookahead
// prefetcher overlaps the next chunk's edge crossing with the current
// chunk's compute.
//
// Correctness rules:
//   - Buffers returned by MoveDataDownCached are read-only and pinned;
//     callers release them with Unpin, never Release, and never move data
//     into them.
//   - Writes through MoveData/MoveData2D/MoveDataTransposeF32 invalidate
//     overlapping cache entries of the written buffer, so a cached source
//     that is later overwritten (HotSpot's alternating temperature files)
//     can never serve stale bytes.
//   - A fetch that fails under injected faults is retried inside MoveData;
//     the pool entry is committed only after the move succeeds, so retries
//     neither double-count a miss nor publish a corrupt entry.
//   - With the cache disabled (or bypassed), the same call degrades to
//     plain alloc + move, which keeps results bit-identical to the
//     uncached baseline by construction.

// CacheOptions configures the per-memory-node staging cache.
type CacheOptions struct {
	// Enabled switches the policy on. Off (the default), every
	// MoveDataDownCached degrades to plain alloc + move.
	Enabled bool

	// CapacityShare is the fraction of each memory node's total capacity
	// the pool may occupy; 0 defaults to 0.5. The share is taken of the
	// node's capacity, not its current free bytes, so pool sizing does not
	// depend on allocation order.
	CapacityShare float64

	// CapacityBytes, when positive, overrides CapacityShare with an
	// absolute pool size per node (clamped to the node's capacity). The
	// ablation sweep drives this from 0 to the full staging level.
	CapacityBytes int64

	// Prefetch enables the lookahead prefetcher: Ctx.Prefetch issues the
	// next chunk's fetch asynchronously on the source device while the
	// current chunk computes.
	Prefetch bool
}

// defaultCacheShare is the staging-capacity fraction granted when the
// options name neither a share nor a byte size.
const defaultCacheShare = 0.5

// capacityAt returns the pool capacity the options grant on node.
func (o CacheOptions) capacityAt(n *topo.Node) int64 {
	if !o.Enabled || n.Mem == nil {
		return 0
	}
	total := n.Mem.Capacity()
	if o.CapacityBytes > 0 {
		if o.CapacityBytes > total {
			return total
		}
		return o.CapacityBytes
	}
	share := o.CapacityShare
	if share <= 0 {
		share = defaultCacheShare
	}
	if share > 1 {
		share = 1
	}
	return int64(share * float64(total))
}

// cacheRef ties a buffer to the cached-move path. Pool-resident buffers
// (nc != nil) are owned by the cache: pin counts live in the pool entry and
// the buffer is freed by eviction or invalidation, never by the
// application. Fallback buffers (nc == nil: cache off, or bypass) are
// private to the caller; their pin count lives here and the last Unpin
// releases them.
type cacheRef struct {
	nc    *nodeCache
	entry *cache.Entry
	pins  int
}

// nodeCache is the staging cache of one memory node.
type nodeCache struct {
	node *topo.Node
	pool *cache.Pool
}

// cacheAt returns the node's cache, creating it on first use, or nil when
// the cache is disabled or the node cannot host one (file stores).
func (rt *Runtime) cacheAt(n *topo.Node) *nodeCache {
	if !rt.opts.Cache.Enabled || n.Kind().IsFileStore() {
		return nil
	}
	i, ok := slices.BinarySearchFunc(rt.caches, n.ID, byNodeID)
	if ok {
		return rt.caches[i]
	}
	nc := &nodeCache{node: n, pool: cache.New(rt.opts.Cache.capacityAt(n))}
	nc.pool.OnChange = func(k cache.Key) {
		for _, w := range rt.watches {
			if w.node == n.ID {
				w.fn(k)
			}
		}
	}
	rt.caches = slices.Insert(rt.caches, i, nc)
	return nc
}

// cacheOf returns the staging cache of node id, or nil before its first
// use.
func (rt *Runtime) cacheOf(id int) *nodeCache {
	if i, ok := slices.BinarySearchFunc(rt.caches, id, byNodeID); ok {
		return rt.caches[i]
	}
	return nil
}

// byNodeID orders node caches by node ID.
func byNodeID(nc *nodeCache, id int) int { return cmp.Compare(nc.node.ID, id) }

// moveDataDownCached serves the extent src[srcOff:srcOff+n) as a pinned
// resident buffer at child, from the child's cache when possible.
func (rt *Runtime) moveDataDownCached(p *sim.Proc, at, child *topo.Node, src *Buffer, srcOff, n int64) (*Buffer, error) {
	if src == nil {
		return nil, fmt.Errorf("core: cached move_data_down of nil buffer")
	}
	if src.node != at || child.Parent != at {
		return nil, fmt.Errorf("core: cached move_data_down from %v must go to a child of %v (got %v -> %v)",
			at, at, src.node, child)
	}
	if src.released {
		return nil, fmt.Errorf("core: cached move_data_down from released buffer")
	}
	if n <= 0 || srcOff < 0 || n > src.size-srcOff {
		return nil, fmt.Errorf("core: cached move_data_down range srcOff=%d n=%d outside buffer of %d bytes",
			srcOff, n, src.size)
	}
	nc := rt.cacheAt(child)
	if nc == nil {
		return rt.fetchPinned(p, child, src, srcOff, n)
	}
	return nc.get(rt, p, child, src, srcOff, n)
}

// get resolves one cached fetch: hit, wait on an in-flight fetch, or miss
// (fill, or bypass when the extent cannot be cached).
func (nc *nodeCache) get(rt *Runtime, p *sim.Proc, child *topo.Node, src *Buffer, srcOff, n int64) (*Buffer, error) {
	key := cache.Key{Src: src.id, Off: srcOff, Len: n}
	cs := rt.bd.Cache()
	for {
		if e := nc.pool.Get(key); e != nil {
			if !e.Ready() {
				// A prefetch (or concurrent fetch) of this extent is in
				// flight; wait for it, then look again — it may have been
				// aborted or invalidated while we slept.
				e.Pending().(*sim.Latch).Wait(p)
				continue
			}
			// Pin before the charge sleeps: an unpinned entry could be
			// evicted and its buffer released by a rival fill meanwhile.
			nc.pool.Pin(e)
			rt.chargeOverhead(p)
			cs.Hits++
			cs.HitBytes += n
			rt.emitInstant(cacheLane(child.ID), "hit", p.Now(), n)
			if e.Prefetched() {
				e.ClearPrefetched()
				cs.PrefetchHits++
			}
			return e.Value().(*Buffer), nil
		}
		cs.Misses++
		cs.MissBytes += n
		rt.emitInstant(cacheLane(child.ID), "miss", p.Now(), n)
		if n > nc.pool.Capacity() {
			cs.Bypasses++
			rt.emitInstant(cacheLane(child.ID), "bypass", p.Now(), n)
			return rt.fetchPinned(p, child, src, srcOff, n)
		}
		latch := sim.NewLatch(rt.engine)
		e, err := nc.pool.StartFetch(key, latch)
		if err != nil {
			cs.Bypasses++
			rt.emitInstant(cacheLane(child.ID), "bypass", p.Now(), n)
			return rt.fetchPinned(p, child, src, srcOff, n)
		}
		buf, ferr := nc.fill(rt, p, e, child, src, srcOff, n, true)
		latch.Fire()
		return buf, ferr
	}
}

// fill makes room, crosses the edge, and commits the in-flight entry e.
// For demand fills the returned buffer is pinned for the caller (as a pool
// entry, or privately when eviction was blocked or the entry was
// invalidated mid-flight); prefetch fills leave the entry unpinned and
// return nil.
func (nc *nodeCache) fill(rt *Runtime, p *sim.Proc, e *cache.Entry,
	child *topo.Node, src *Buffer, srcOff, n int64, demand bool) (*Buffer, error) {

	cs := rt.bd.Cache()
	victims, ok := nc.pool.EvictFor(0)
	nc.release(rt, p, victims)
	if !ok {
		// Pinned entries block the needed room: serve around the cache.
		nc.pool.Abort(e)
		if !demand {
			return nil, nil
		}
		cs.Bypasses++
		rt.emitInstant(cacheLane(child.ID), "bypass", p.Now(), n)
		return rt.fetchPinned(p, child, src, srcOff, n)
	}
	buf, err := rt.fetchRaw(p, child, src, srcOff, n)
	if err != nil {
		nc.pool.Abort(e)
		return nil, err
	}
	if !demand {
		e.SetPrefetched()
	}
	if nc.pool.Commit(e, buf) {
		buf.cref = &cacheRef{nc: nc, entry: e}
		if demand {
			nc.pool.Pin(e)
		}
		return buf, nil
	}
	// The source range was overwritten while the fetch was in flight: the
	// entry is gone from the pool and we own the buffer. A demand caller
	// still gets it (a plain move issued at the same instant would have
	// read the same interleaving); a prefetch result is useless.
	if demand {
		buf.cref = &cacheRef{pins: 1}
		return buf, nil
	}
	_ = rt.Release(p, buf)
	return nil, nil
}

// fetchRaw allocates at node and moves the extent down — the plain
// (uncached) edge crossing, fault-retried inside MoveData.
func (rt *Runtime) fetchRaw(p *sim.Proc, node *topo.Node, src *Buffer, srcOff, n int64) (*Buffer, error) {
	buf, err := rt.AllocAt(p, node, n)
	if err != nil {
		return nil, err
	}
	if err := rt.MoveData(p, buf, src, 0, srcOff, n); err != nil {
		_ = rt.Release(p, buf)
		return nil, err
	}
	return buf, nil
}

// fetchPinned is fetchRaw returning a privately pinned fallback buffer:
// the shape MoveDataDownCached degrades to when the cache is off or
// bypassed, so application code is identical either way.
func (rt *Runtime) fetchPinned(p *sim.Proc, node *topo.Node, src *Buffer, srcOff, n int64) (*Buffer, error) {
	buf, err := rt.fetchRaw(p, node, src, srcOff, n)
	if err != nil {
		return nil, err
	}
	buf.cref = &cacheRef{pins: 1}
	return buf, nil
}

// release frees evicted cache buffers and counts the evictions.
func (nc *nodeCache) release(rt *Runtime, p *sim.Proc, victims []any) {
	cs := rt.bd.Cache()
	for _, v := range victims {
		cs.Evictions++
		b := v.(*Buffer)
		b.cref = nil
		rt.emitInstant(cacheLane(nc.node.ID), "evict", p.Now(), b.size)
		_ = rt.Release(p, b)
	}
}

// prefetchDown issues an asynchronous fetch of src[srcOff:srcOff+n) into
// child's cache. It is advisory: invalid arguments, a disabled prefetcher,
// an extent already present or in flight, or a blocked pool all make it a
// no-op. Fetch errors do not propagate (the demand fetch will retry and
// surface them) but are counted as CacheStats.PrefetchErrors.
func (rt *Runtime) prefetchDown(p *sim.Proc, at, child *topo.Node, src *Buffer, srcOff, n int64) {
	if !rt.opts.Cache.Enabled || !rt.opts.Cache.Prefetch {
		return
	}
	if src == nil || src.released || src.node != at || child.Parent != at {
		return
	}
	if n <= 0 || srcOff < 0 || n > src.size-srcOff {
		return
	}
	nc := rt.cacheAt(child)
	if nc == nil || n > nc.pool.Capacity() {
		return
	}
	key := cache.Key{Src: src.id, Off: srcOff, Len: n}
	if nc.pool.Get(key) != nil {
		return
	}
	latch := sim.NewLatch(rt.engine)
	e, err := nc.pool.StartFetch(key, latch)
	if err != nil {
		return
	}
	rt.chargeOverhead(p)
	rt.bd.Cache().Prefetches++
	rt.emitInstant(cacheLane(child.ID), "prefetch", p.Now(), n)
	rt.engine.Spawn(fmt.Sprintf("prefetch-%v", key), func(pp *sim.Proc) {
		if _, err := nc.fill(rt, pp, e, child, src, srcOff, n, false); err != nil {
			// The demand fetch will retry and surface its own error; what is
			// lost here is the lookahead, so count it instead of dropping it.
			rt.bd.Cache().PrefetchErrors++
			rt.emitInstant(cacheLane(child.ID), "prefetch-error", pp.Now(), n)
		}
		latch.Fire()
	})
}

// Pin takes an extra reference on a buffer returned by MoveDataDownCached,
// shielding a pool-resident entry from eviction (pinned shards can never be
// evicted mid-compute).
func (rt *Runtime) Pin(p *sim.Proc, b *Buffer) error {
	if b == nil || b.cref == nil {
		return fmt.Errorf("core: pin of a buffer not returned by the cached move path")
	}
	if b.released {
		return fmt.Errorf("core: pin of released buffer")
	}
	rt.chargeOverhead(p)
	if b.cref.entry != nil {
		b.cref.nc.pool.Pin(b.cref.entry)
	} else {
		b.cref.pins++
	}
	return nil
}

// Unpin releases one reference taken by MoveDataDownCached or Pin. An
// unpinned pool entry stays resident for future hits until evicted; a
// fallback buffer is released on its last unpin. Unpin is how applications
// let go of cached shards — Release on a pool-resident buffer is an error.
func (rt *Runtime) Unpin(p *sim.Proc, b *Buffer) error {
	if b == nil || b.cref == nil {
		return fmt.Errorf("core: unpin of a buffer not returned by the cached move path")
	}
	if b.released {
		return fmt.Errorf("core: unpin of released buffer")
	}
	rt.chargeOverhead(p)
	if e := b.cref.entry; e != nil {
		if !e.Pinned() {
			return fmt.Errorf("core: unpin of unpinned cache entry %v", e.Key())
		}
		if free := b.cref.nc.pool.Unpin(e); free != nil {
			// The entry was invalidated while pinned; its last user frees
			// the stale buffer.
			fb := free.(*Buffer)
			fb.cref = nil
			return rt.Release(p, fb)
		}
		return nil
	}
	if b.cref.pins <= 0 {
		return fmt.Errorf("core: unpin of unpinned buffer on %v", b.node)
	}
	b.cref.pins--
	if b.cref.pins > 0 {
		return nil
	}
	b.cref = nil
	return rt.Release(p, b)
}

// CacheResidentBytes reports how many of the n bytes of src at srcOff are
// already staged (ready, pinned, or in flight — an in-flight fetch lands
// before a newly placed task would read it) in node's cache. The probe is
// side-effect free: it never bumps LRU order, charges no time, and is safe
// to call while ranking candidate placements. Extents are matched exactly,
// mirroring the cache's own lookup, so the answer is n or 0.
// WatchResidency hears of every change to the answer.
func (rt *Runtime) CacheResidentBytes(node *topo.Node, src *Buffer, srcOff, n int64) int64 {
	if src == nil || src.released || n <= 0 {
		return 0
	}
	nc := rt.cacheOf(node.ID)
	if nc == nil {
		return 0
	}
	if nc.pool.Peek(cache.Key{Src: src.id, Off: srcOff, Len: n}) != nil {
		return n
	}
	return 0
}

// residencyWatch is one WatchResidency registration.
type residencyWatch struct {
	node int
	fn   func(cache.Key)
}

// WatchResidency registers fn to hear of every change in what
// CacheResidentBytes answers at node: each source extent that appears in
// or leaves node's staging cache (a fetch starts or aborts, an entry is
// evicted or invalidated), and each still-cached extent of a source that
// is released. fn runs inside the change, so it must neither block nor
// touch the cache. The watch holds across the lazy creation of node's
// cache; detach removes it.
func (rt *Runtime) WatchResidency(node *topo.Node, fn func(cache.Key)) (detach func()) {
	w := &residencyWatch{node: node.ID, fn: fn}
	rt.watches = append(rt.watches, w)
	return func() {
		if i := slices.Index(rt.watches, w); i >= 0 {
			rt.watches = slices.Delete(rt.watches, i, i+1)
		}
	}
}

// markReleased flags b released. CacheResidentBytes answers 0 for a
// released source from then on, so its still-cached extents are reported
// to the residency watches.
func (rt *Runtime) markReleased(b *Buffer) {
	b.released = true
	for _, w := range rt.watches {
		if nc := rt.cacheOf(w.node); nc != nil {
			nc.pool.EachKey(b.id, w.fn)
		}
	}
}

// invalidateRange drops every cache entry whose source extent overlaps the
// written range [off, off+n) of dst, node by node in node-ID order; the
// write paths call it so cached reads can never observe stale bytes.
// Pinned and in-flight entries are doomed (invisible at once, freed by
// their last user).
func (rt *Runtime) invalidateRange(p *sim.Proc, dst *Buffer, off, n int64) {
	for _, nc := range rt.caches {
		for _, v := range rt.invalidateIn(nc, dst, off, n) {
			b := v.(*Buffer)
			b.cref = nil
			_ = rt.Release(p, b)
		}
	}
}

// invalidateIn drops one node cache's copies of dst's [off, off+n), counts
// and publishes the invalidation, and returns the ready victims, already
// out of the pool, for the caller to detach and release.
func (rt *Runtime) invalidateIn(nc *nodeCache, dst *Buffer, off, n int64) []any {
	victims, doomed := nc.pool.InvalidateRange(dst.id, off, n)
	if total := int64(len(victims)) + int64(doomed); total > 0 {
		rt.bd.Cache().Invalidations += total
		rt.emitInstant(cacheLane(nc.node.ID), "invalidate", rt.engine.Now(), total)
	}
	return victims
}

// checkMoveDst rejects writes into cache-owned buffers (they are read-only
// by contract) and returns whether invalidation is needed at all.
func (rt *Runtime) checkMoveDst(dst *Buffer) error {
	if dst.cref != nil && dst.cref.entry != nil {
		return fmt.Errorf("core: move into cache-owned buffer on %v (cached buffers are read-only)", dst.node)
	}
	return nil
}

// cacheRelieve evicts one least-recently-used unpinned cache entry on node
// to relieve allocation pressure: AllocAt calls it while the node's device
// cannot reserve the bytes an allocation needs, so the application's own
// working set always wins over cached copies. It reports whether anything
// was freed.
func (rt *Runtime) cacheRelieve(p *sim.Proc, node *topo.Node) bool {
	nc := rt.cacheOf(node.ID)
	if nc == nil {
		return false
	}
	v, ok := nc.pool.EvictOne()
	if !ok {
		return false
	}
	cs := rt.bd.Cache()
	cs.Evictions++
	b := v.(*Buffer)
	b.cref = nil
	rt.emitInstant(cacheLane(node.ID), "evict", p.Now(), b.size)
	_ = rt.Release(p, b)
	return true
}

// CacheStats returns the runtime's cumulative staging-cache counters.
func (rt *Runtime) CacheStats() trace.CacheStats { return *rt.bd.Cache() }

// CacheReport renders the cache configuration (and, for instantiated
// pools, occupancy) per memory node, so topology dumps document the
// experiment setup.
func (rt *Runtime) CacheReport() string {
	var sb strings.Builder
	if !rt.opts.Cache.Enabled {
		sb.WriteString("staging cache: off\n")
		return sb.String()
	}
	policy := "lru"
	if rt.opts.Cache.Prefetch {
		policy = "lru+prefetch"
	}
	fmt.Fprintf(&sb, "staging cache: policy=%s\n", policy)
	for _, n := range rt.tree.Nodes() {
		if n.Kind().IsFileStore() {
			continue
		}
		capBytes := rt.opts.Cache.capacityAt(n)
		fmt.Fprintf(&sb, "  %v: capacity %.0f MiB", n, float64(capBytes)/(1<<20))
		if nc := rt.cacheOf(n.ID); nc != nil {
			fmt.Fprintf(&sb, " (used %.0f MiB, %d entries)",
				float64(nc.pool.Used())/(1<<20), nc.pool.Len())
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
