package cache

import "testing"

// fill commits a ready entry for k holding val.
func fill(t *testing.T, p *Pool, k Key, val any) *Entry {
	t.Helper()
	e, err := p.StartFetch(k, "pending")
	if err != nil {
		t.Fatalf("StartFetch(%v): %v", k, err)
	}
	if !p.Commit(e, val) {
		t.Fatalf("Commit(%v) reported doomed", k)
	}
	p.CheckInvariants()
	return e
}

func TestGetHitAndMiss(t *testing.T) {
	p := New(100)
	k := Key{Src: 1, Off: 0, Len: 40}
	if p.Get(k) != nil {
		t.Fatal("hit on empty pool")
	}
	fill(t, p, k, "a")
	e := p.Get(k)
	if e == nil || e.Value() != "a" {
		t.Fatalf("expected ready entry holding a, got %+v", e)
	}
	if p.Used() != 40 || p.Len() != 1 {
		t.Fatalf("used=%d len=%d", p.Used(), p.Len())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	p := New(100)
	a := Key{Src: 1, Off: 0, Len: 40}
	b := Key{Src: 1, Off: 40, Len: 40}
	fill(t, p, a, "a")
	fill(t, p, b, "b")
	p.Get(a) // bump a: b is now least recently used

	victims, ok := p.EvictFor(40)
	if !ok || len(victims) != 1 || victims[0] != "b" {
		t.Fatalf("expected to evict b, got %v ok=%v", victims, ok)
	}
	if p.Get(b) != nil {
		t.Fatal("evicted entry still visible")
	}
	if p.Get(a) == nil {
		t.Fatal("recently used entry evicted")
	}
	p.CheckInvariants()
}

func TestPinBlocksEviction(t *testing.T) {
	p := New(80)
	a := Key{Src: 1, Off: 0, Len: 40}
	b := Key{Src: 1, Off: 40, Len: 40}
	ea := fill(t, p, a, "a")
	fill(t, p, b, "b")
	p.Pin(ea)
	p.Get(b) // a is LRU but pinned

	victims, ok := p.EvictFor(40)
	if !ok || len(victims) != 1 || victims[0] != "b" {
		t.Fatalf("eviction should skip pinned a and take b, got %v ok=%v", victims, ok)
	}
	// Only the pinned entry remains: nothing more is evictable.
	if _, ok := p.EvictFor(41); ok {
		t.Fatal("eviction succeeded with only a pinned entry left")
	}
	if free := p.Unpin(ea); free != nil {
		t.Fatalf("unpin of live entry returned %v to free", free)
	}
	if _, ok := p.EvictFor(41); !ok {
		t.Fatal("eviction still blocked after unpin")
	}
	p.CheckInvariants()
}

func TestStartFetchRules(t *testing.T) {
	p := New(100)
	k := Key{Src: 1, Off: 0, Len: 40}
	if _, err := p.StartFetch(Key{Src: 1, Off: 0, Len: 200}, "x"); err == nil {
		t.Fatal("fetch larger than the pool accepted")
	}
	e, err := p.StartFetch(k, "latch")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.StartFetch(k, "latch2"); err == nil {
		t.Fatal("double fetch of one key accepted")
	}
	got := p.Get(k)
	if got == nil || got.Ready() || got.Pending() != "latch" {
		t.Fatalf("in-flight entry not surfaced: %+v", got)
	}
	// In-flight entries are reserved but never evicted.
	if _, ok := p.EvictFor(80); ok {
		t.Fatal("evicted through an in-flight entry")
	}
	p.Abort(e)
	if p.Get(k) != nil || p.Used() != 0 {
		t.Fatalf("abort left state: used=%d", p.Used())
	}
	if _, err := p.StartFetch(k, "latch3"); err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
	p.CheckInvariants()
}

func TestEvictOne(t *testing.T) {
	p := New(100)
	fill(t, p, Key{Src: 1, Off: 0, Len: 40}, "a")
	fill(t, p, Key{Src: 1, Off: 40, Len: 40}, "b")
	v, ok := p.EvictOne()
	if !ok || v != "a" {
		t.Fatalf("expected LRU a, got %v ok=%v", v, ok)
	}
	v, ok = p.EvictOne()
	if !ok || v != "b" {
		t.Fatalf("expected b, got %v ok=%v", v, ok)
	}
	if _, ok = p.EvictOne(); ok {
		t.Fatal("evicted from empty pool")
	}
	p.CheckInvariants()
}

func TestInvalidateRangeOverlap(t *testing.T) {
	p := New(1000)
	a := Key{Src: 7, Off: 0, Len: 100}
	b := Key{Src: 7, Off: 100, Len: 100}
	c := Key{Src: 8, Off: 0, Len: 100} // different source
	fill(t, p, a, "a")
	fill(t, p, b, "b")
	fill(t, p, c, "c")

	// Write [50, 120) of source 7: overlaps a and b, not c.
	victims, doomed := p.InvalidateRange(7, 50, 70)
	if len(victims) != 2 || doomed != 0 {
		t.Fatalf("victims=%v doomed=%d", victims, doomed)
	}
	if p.Get(a) != nil || p.Get(b) != nil {
		t.Fatal("invalidated entries still visible")
	}
	if p.Get(c) == nil {
		t.Fatal("unrelated source invalidated")
	}
	// Adjacent (non-overlapping) write leaves c alone.
	if victims, _ := p.InvalidateRange(8, 100, 50); len(victims) != 0 {
		t.Fatalf("adjacent write invalidated %v", victims)
	}
	p.CheckInvariants()
}

func TestInvalidatePinnedDooms(t *testing.T) {
	p := New(100)
	k := Key{Src: 1, Off: 0, Len: 40}
	e := fill(t, p, k, "a")
	p.Pin(e)
	victims, doomed := p.InvalidateRange(1, 0, 100)
	if len(victims) != 0 || doomed != 1 {
		t.Fatalf("victims=%v doomed=%d", victims, doomed)
	}
	if p.Get(k) != nil {
		t.Fatal("doomed entry still visible")
	}
	if p.Used() != 40 {
		t.Fatal("doomed-but-pinned entry lost its accounting early")
	}
	// The last unpin hands the buffer back for freeing.
	if free := p.Unpin(e); free != "a" {
		t.Fatalf("unpin returned %v", free)
	}
	if p.Used() != 0 {
		t.Fatalf("used=%d after doomed entry freed", p.Used())
	}
	p.CheckInvariants()
}

func TestInvalidateInFlightDooms(t *testing.T) {
	p := New(100)
	k := Key{Src: 1, Off: 0, Len: 40}
	e, err := p.StartFetch(k, "latch")
	if err != nil {
		t.Fatal(err)
	}
	if _, doomed := p.InvalidateRange(1, 0, 40); doomed != 1 {
		t.Fatal("in-flight entry not doomed")
	}
	if p.Get(k) != nil {
		t.Fatal("doomed in-flight entry still visible")
	}
	// Commit of a doomed fetch hands the buffer back to the fetcher.
	if p.Commit(e, "a") {
		t.Fatal("doomed commit became visible")
	}
	if p.Used() != 0 || p.Len() != 0 {
		t.Fatalf("used=%d len=%d after doomed commit", p.Used(), p.Len())
	}
	p.CheckInvariants()
}

func TestZeroCapacityPool(t *testing.T) {
	p := New(0)
	if _, err := p.StartFetch(Key{Src: 1, Off: 0, Len: 1}, "x"); err == nil {
		t.Fatal("zero-capacity pool accepted a fetch")
	}
}

// TestOnChangeReportsEveryVisibilityFlip drives random pool operations and
// requires OnChange to report exactly the keys whose Peek answer flipped
// in each one, once each: the contract affinity placement's cached prices
// rely on.
func TestOnChangeReportsEveryVisibilityFlip(t *testing.T) {
	p := New(160)
	var reported []Key
	p.OnChange = func(k Key) { reported = append(reported, k) }
	var keys []Key
	for src := int64(1); src <= 2; src++ {
		for off := int64(0); off < 4; off++ {
			keys = append(keys, Key{Src: src, Off: off * 32, Len: 32 + off})
		}
	}
	visible := func() map[Key]bool {
		m := map[Key]bool{}
		for _, k := range keys {
			if p.Peek(k) != nil {
				m[k] = true
			}
		}
		return m
	}
	var inflight, pinned []*Entry
	state := uint64(7)
	rnd := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for step := 0; step < 4000; step++ {
		before := visible()
		reported = reported[:0]
		switch op := rnd(8); {
		case op == 0 || op == 1:
			if e, err := p.StartFetch(keys[rnd(len(keys))], "pending"); err == nil {
				inflight = append(inflight, e)
			}
		case op == 2 && len(inflight) > 0:
			i := rnd(len(inflight))
			e := inflight[i]
			inflight = append(inflight[:i], inflight[i+1:]...)
			if rnd(3) == 0 {
				p.Abort(e)
			} else if p.Commit(e, "v") && rnd(2) == 0 {
				p.Pin(e)
				pinned = append(pinned, e)
			}
		case op == 3 && len(pinned) > 0:
			i := rnd(len(pinned))
			p.Unpin(pinned[i])
			pinned = append(pinned[:i], pinned[i+1:]...)
		case op == 4:
			p.EvictFor(int64(rnd(64)))
		case op == 5:
			p.EvictOne()
		case op == 6:
			p.InvalidateRange(int64(1+rnd(2)), int64(rnd(128)), int64(1+rnd(48)))
		case op == 7:
			p.Get(keys[rnd(len(keys))])
		}
		p.CheckInvariants()
		after := visible()
		flipped := map[Key]bool{}
		for _, k := range keys {
			if before[k] != after[k] {
				flipped[k] = true
			}
		}
		seen := map[Key]bool{}
		for _, k := range reported {
			if !flipped[k] || seen[k] {
				t.Fatalf("step %d: reported %v, flipped %v", step, reported, flipped)
			}
			seen[k] = true
		}
		if len(seen) != len(flipped) {
			t.Fatalf("step %d: reported %v, flipped %v", step, reported, flipped)
		}
	}
}
