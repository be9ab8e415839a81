// Package cache implements the policy core of the runtime's staging cache:
// a per-memory-node buffer pool keyed by source extent, with LRU eviction,
// explicit pinning, in-flight (being-fetched) entries, and write-path
// invalidation. The pool is pure bookkeeping — it never allocates device
// space or moves bytes itself; package core owns the resident buffers and
// threads them through as opaque values. Keeping the policy free of
// simulation and device types makes it testable in isolation and reusable
// for any node of the tree.
package cache

import (
	"container/list"
	"fmt"
)

// Key identifies one cached extent: a half-open byte range of a source
// buffer, named by the source's stable buffer ID. Two reads of the same
// range of the same source hit the same entry; overlapping-but-different
// ranges are distinct entries (no sub-range matching — the applications'
// chunk schedules re-read exact extents).
type Key struct {
	Src int64 // source buffer ID
	Off int64 // byte offset within the source
	Len int64 // extent length in bytes
}

// String renders the key for error messages.
func (k Key) String() string {
	return fmt.Sprintf("buf%d[%d:%d]", k.Src, k.Off, k.Off+k.Len)
}

// Entry is one pool slot. An entry is either ready (Value holds the
// resident buffer) or in flight (Pending holds the fetch-completion signal
// a concurrent reader can wait on). Pinned entries are never evicted;
// doomed entries have been invalidated while pinned or in flight and are
// already invisible to lookups, lingering only until their last user lets
// go.
type Entry struct {
	key        Key
	value      any
	pending    any
	pins       int
	prefetched bool
	doomed     bool
	elem       *list.Element
}

// Key returns the extent the entry caches.
func (e *Entry) Key() Key { return e.key }

// Value returns the resident buffer of a ready entry (nil while in flight).
func (e *Entry) Value() any { return e.value }

// Pending returns the fetch-completion signal of an in-flight entry.
func (e *Entry) Pending() any { return e.pending }

// Ready reports whether the fetch completed and Value is usable.
func (e *Entry) Ready() bool { return e.pending == nil }

// Pinned reports whether any user holds the entry.
func (e *Entry) Pinned() bool { return e.pins > 0 }

// Prefetched reports whether the entry was filled by the prefetcher and has
// not yet served a demand lookup.
func (e *Entry) Prefetched() bool { return e.prefetched }

// SetPrefetched marks the entry as filled by the prefetcher.
func (e *Entry) SetPrefetched() { e.prefetched = true }

// ClearPrefetched marks the prefetched entry as consumed by demand.
func (e *Entry) ClearPrefetched() { e.prefetched = false }

// Doomed reports whether the entry was invalidated while pinned or in
// flight; its buffer must be freed by the last user instead of re-entering
// the pool.
func (e *Entry) Doomed() bool { return e.doomed }

// Pool is the buffer pool of one memory node. It is not safe for true
// concurrent use; the discrete-event simulation interleaves tasks only at
// blocking points, and the pool's mutating methods never block.
type Pool struct {
	capacity int64
	used     int64
	entries  map[Key]*Entry            // visible (non-doomed) entries
	bySrc    map[int64]map[*Entry]bool // source ID -> entries, for invalidation
	lru      *list.List                // front = most recently used ready entry

	// OnChange, when set, hears each key that becomes visible to lookups
	// (StartFetch) or stops being visible (Abort, eviction, invalidation),
	// once the pool has changed. Nothing else changes what Peek answers.
	OnChange func(Key)
}

// New creates a pool with the given byte capacity. A zero or negative
// capacity is legal and makes every insert fail — the "cache off" point of
// a capacity sweep.
func New(capacity int64) *Pool {
	return &Pool{
		capacity: capacity,
		entries:  make(map[Key]*Entry),
		bySrc:    make(map[int64]map[*Entry]bool),
		lru:      list.New(),
	}
}

// Capacity returns the pool's byte capacity.
func (p *Pool) Capacity() int64 { return p.capacity }

// Used returns the bytes accounted to resident, in-flight and doomed
// entries.
func (p *Pool) Used() int64 { return p.used }

// Len returns the number of visible entries (ready or in flight).
func (p *Pool) Len() int { return len(p.entries) }

// Get returns the entry caching k, or nil. A ready entry is bumped to the
// front of the LRU order.
func (p *Pool) Get(k Key) *Entry {
	e := p.entries[k]
	if e != nil && e.Ready() {
		p.lru.MoveToFront(e.elem)
	}
	return e
}

// Peek returns the entry caching k without touching the LRU order — the
// read-only residency probe affinity scoring uses, so ranking candidate
// placements can never perturb which entry a real fetch would evict.
func (p *Pool) Peek(k Key) *Entry { return p.entries[k] }

// StartFetch reserves an in-flight entry for k, carrying pending as the
// completion signal for concurrent readers. The reservation counts against
// capacity immediately so parallel fetches cannot oversubscribe the pool;
// callers follow up with EvictFor(0) to make the accounting fit. It fails
// if k is already present or larger than the whole pool.
func (p *Pool) StartFetch(k Key, pending any) (*Entry, error) {
	if k.Len <= 0 {
		return nil, fmt.Errorf("cache: fetch of %d bytes", k.Len)
	}
	if k.Len > p.capacity {
		return nil, fmt.Errorf("cache: %v exceeds pool capacity %d", k, p.capacity)
	}
	if _, ok := p.entries[k]; ok {
		return nil, fmt.Errorf("cache: %v already present", k)
	}
	if pending == nil {
		return nil, fmt.Errorf("cache: StartFetch without a pending signal")
	}
	e := &Entry{key: k, pending: pending}
	p.entries[k] = e
	p.addBySrc(e)
	p.used += k.Len
	p.changed(k)
	return e, nil
}

// Commit completes an in-flight fetch with the resident buffer value. It
// returns true when the entry became visible; false when the entry was
// doomed (invalidated) while in flight, in which case the pool has dropped
// it and the caller owns the buffer.
func (p *Pool) Commit(e *Entry, value any) bool {
	if e.Ready() {
		panic(fmt.Sprintf("cache: commit of ready entry %v", e.key))
	}
	e.pending = nil
	if e.doomed {
		p.used -= e.key.Len
		return false
	}
	e.value = value
	e.elem = p.lru.PushFront(e)
	return true
}

// Abort drops a failed in-flight fetch so the key can be retried.
func (p *Pool) Abort(e *Entry) {
	if e.Ready() {
		panic(fmt.Sprintf("cache: abort of ready entry %v", e.key))
	}
	p.used -= e.key.Len
	if e.doomed {
		return // already removed from the maps by invalidation
	}
	delete(p.entries, e.key)
	p.dropBySrc(e)
	p.changed(e.key)
}

// Pin takes a reference on a ready entry, shielding it from eviction.
func (p *Pool) Pin(e *Entry) {
	if !e.Ready() {
		panic(fmt.Sprintf("cache: pin of in-flight entry %v", e.key))
	}
	e.pins++
}

// Unpin releases one reference. If the entry was doomed and this was the
// last reference, the pool drops its accounting and returns the buffer for
// the caller to free; otherwise it returns nil.
func (p *Pool) Unpin(e *Entry) any {
	if e.pins <= 0 {
		panic(fmt.Sprintf("cache: unpin of unpinned entry %v", e.key))
	}
	e.pins--
	if e.doomed && e.pins == 0 {
		p.used -= e.key.Len
		p.lru.Remove(e.elem)
		return e.value
	}
	return nil
}

// EvictFor evicts least-recently-used unpinned ready entries until the pool
// can account need more bytes within capacity, returning the evicted
// buffers for the caller to free. ok is false when pinned or in-flight
// entries block the way; whatever room was reclaimed stays reclaimed.
func (p *Pool) EvictFor(need int64) (victims []any, ok bool) {
	for p.used+need > p.capacity {
		e := p.lruVictim()
		if e == nil {
			return victims, false
		}
		victims = append(victims, p.remove(e))
	}
	return victims, true
}

// EvictOne evicts the single least-recently-used unpinned ready entry —
// the allocator's pressure valve — returning its buffer, or ok=false when
// nothing is evictable.
func (p *Pool) EvictOne() (victim any, ok bool) {
	e := p.lruVictim()
	if e == nil {
		return nil, false
	}
	return p.remove(e), true
}

// lruVictim returns the least-recently-used unpinned ready entry, or nil.
func (p *Pool) lruVictim() *Entry {
	for el := p.lru.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*Entry); !e.Pinned() {
			return e
		}
	}
	return nil
}

// remove drops a ready unpinned entry from the pool and returns its buffer.
func (p *Pool) remove(e *Entry) any {
	p.lru.Remove(e.elem)
	delete(p.entries, e.key)
	p.dropBySrc(e)
	p.used -= e.key.Len
	p.changed(e.key)
	return e.value
}

// InvalidateRange removes every entry whose cached extent overlaps the
// written range [off, off+n) of source src. Ready unpinned entries are
// returned as victims for the caller to free; pinned and in-flight entries
// are doomed instead — immediately invisible to lookups, freed when their
// last user unpins (or the fetch commits). doomed reports how many took
// that path.
func (p *Pool) InvalidateRange(src, off, n int64) (victims []any, doomed int) {
	for e := range p.bySrc[src] {
		if e.key.Off >= off+n || e.key.Off+e.key.Len <= off {
			continue
		}
		if e.Ready() && !e.Pinned() {
			victims = append(victims, p.remove(e))
			continue
		}
		e.doomed = true
		delete(p.entries, e.key)
		p.dropBySrc(e)
		p.changed(e.key)
		doomed++
	}
	return victims, doomed
}

// EachKey calls fn with every visible key of source src, in no particular
// order; fn must not change the pool.
func (p *Pool) EachKey(src int64, fn func(Key)) {
	for e := range p.bySrc[src] {
		fn(e.key)
	}
}

// changed reports a visibility change of k to OnChange.
func (p *Pool) changed(k Key) {
	if p.OnChange != nil {
		p.OnChange(k)
	}
}

func (p *Pool) addBySrc(e *Entry) {
	m := p.bySrc[e.key.Src]
	if m == nil {
		m = make(map[*Entry]bool)
		p.bySrc[e.key.Src] = m
	}
	m[e] = true
}

func (p *Pool) dropBySrc(e *Entry) {
	m := p.bySrc[e.key.Src]
	delete(m, e)
	if len(m) == 0 {
		delete(p.bySrc, e.key.Src)
	}
}

// CheckInvariants panics if the pool's internal accounting is inconsistent;
// tests call it after every mutation sequence.
func (p *Pool) CheckInvariants() {
	var used int64
	ready := 0
	for k, e := range p.entries {
		if e.key != k {
			panic(fmt.Sprintf("cache: entry keyed %v thinks it is %v", k, e.key))
		}
		if e.doomed {
			panic(fmt.Sprintf("cache: doomed entry %v still visible", k))
		}
		used += k.Len
		if e.Ready() {
			ready++
		}
		if !p.bySrc[k.Src][e] {
			panic(fmt.Sprintf("cache: entry %v missing from source index", k))
		}
	}
	if p.lru.Len() != ready {
		// Doomed-but-pinned ready entries also sit in the LRU list until
		// their last unpin; account for them.
		extra := 0
		for el := p.lru.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*Entry); e.doomed {
				extra++
				used += e.key.Len
			}
		}
		if p.lru.Len() != ready+extra {
			panic(fmt.Sprintf("cache: %d LRU elements for %d ready entries", p.lru.Len(), ready))
		}
	}
	// Doomed in-flight entries keep their reservation until commit/abort.
	for _, m := range p.bySrc {
		for e := range m {
			if _, ok := p.entries[e.key]; !ok {
				panic(fmt.Sprintf("cache: source index holds unmapped entry %v", e.key))
			}
		}
	}
	if used > p.used {
		panic(fmt.Sprintf("cache: accounted %d bytes but used=%d", used, p.used))
	}
}
