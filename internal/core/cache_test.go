package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// newCachedAPU builds a small SSD tree with the staging cache enabled.
func newCachedAPU(t *testing.T, co CacheOptions) (*sim.Engine, *Runtime) {
	t.Helper()
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 256, DRAMMiB: 32})
	opts := DefaultOptions()
	opts.Cache = co
	return e, NewRuntime(e, tree, opts)
}

// pat is the deterministic byte pattern mkInput fills its file with.
func pat(i int64) byte { return byte(i * 7) }

// mkInput creates a functional storage input of n bytes filled with pat.

func mkInput(t *testing.T, rt *Runtime, name string, n int64) *Buffer {
	t.Helper()
	data := make([]byte, n)
	for i := range data {
		data[i] = pat(int64(i))
	}
	f, err := rt.CreateInput(rt.Tree().Root(), name, n, data)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCachedMoveHitsSkipTheEdge(t *testing.T) {
	_, rt := newCachedAPU(t, CacheOptions{Enabled: true, CapacityBytes: 1 << 20})
	src := mkInput(t, rt, "in", 4096)
	dram := rt.Tree().Root().Children[0]

	var missTime, hitTime sim.Time
	_, err := rt.Run("cached", func(c *Ctx) error {
		t0 := c.Proc().Now()
		b1, err := c.MoveDataDownCached(dram, src, 0, 4096)
		if err != nil {
			return err
		}
		missTime = c.Proc().Now() - t0
		want := append([]byte(nil), b1.Bytes()...)
		if err := c.Unpin(b1); err != nil {
			return err
		}
		t1 := c.Proc().Now()
		b2, err := c.MoveDataDownCached(dram, src, 0, 4096)
		if err != nil {
			return err
		}
		hitTime = c.Proc().Now() - t1
		if b2 != b1 {
			return fmt.Errorf("hit returned a different buffer")
		}
		if !bytes.Equal(b2.Bytes(), want) {
			return fmt.Errorf("hit served different bytes")
		}
		return c.Unpin(b2)
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := rt.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", cs.Hits, cs.Misses)
	}
	if cs.HitBytes != 4096 || cs.MissBytes != 4096 {
		t.Fatalf("hitBytes=%d missBytes=%d", cs.HitBytes, cs.MissBytes)
	}
	if hitTime*10 > missTime {
		t.Fatalf("hit took %v, miss %v: hit should skip the storage edge", hitTime, missTime)
	}
}

func TestCacheDisabledFallsBackToPlainMove(t *testing.T) {
	_, rt := newCachedAPU(t, CacheOptions{})
	src := mkInput(t, rt, "in", 4096)
	dram := rt.Tree().Root().Children[0]
	_, err := rt.Run("fallback", func(c *Ctx) error {
		b, err := c.MoveDataDownCached(dram, src, 0, 4096)
		if err != nil {
			return err
		}
		if b.Bytes()[7] != pat(7) {
			return fmt.Errorf("fallback served wrong bytes")
		}
		// The private buffer supports extra pins and dies on the last Unpin.
		if err := c.Pin(b); err != nil {
			return err
		}
		if err := c.Unpin(b); err != nil {
			return err
		}
		return c.Unpin(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs := rt.CacheStats(); cs.Any() {
		t.Fatalf("disabled cache counted activity: %+v", cs)
	}
	if used := dram.Mem.Used(); used != 0 {
		t.Fatalf("fallback buffer leaked: %d bytes still reserved", used)
	}
}

func TestCacheLRUEvictionAndPinning(t *testing.T) {
	// Pool of 8 KiB holds two 4 KiB extents.
	_, rt := newCachedAPU(t, CacheOptions{Enabled: true, CapacityBytes: 8 << 10})
	src := mkInput(t, rt, "in", 16<<10)
	dram := rt.Tree().Root().Children[0]
	_, err := rt.Run("evict", func(c *Ctx) error {
		fetch := func(off int64) (*Buffer, error) { return c.MoveDataDownCached(dram, src, off, 4<<10) }
		a, err := fetch(0)
		if err != nil {
			return err
		}
		b, err := fetch(4 << 10)
		if err != nil {
			return err
		}
		if err := c.Unpin(b); err != nil { // a stays pinned
			return err
		}
		// Third extent: must evict b (LRU unpinned), not pinned a.
		cbuf, err := fetch(8 << 10)
		if err != nil {
			return err
		}
		if rt.CacheStats().Evictions != 1 {
			return fmt.Errorf("evictions=%d", rt.CacheStats().Evictions)
		}
		// a must still hit.
		a2, err := fetch(0)
		if err != nil {
			return err
		}
		if a2 != a {
			return fmt.Errorf("pinned entry was evicted")
		}
		// b must miss again.
		before := rt.CacheStats().Misses
		b2, err := fetch(4 << 10)
		if err != nil {
			return err
		}
		if rt.CacheStats().Misses != before+1 {
			return fmt.Errorf("evicted entry did not miss")
		}
		for _, buf := range []*Buffer{a, a2, cbuf, b2} {
			if err := c.Unpin(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCacheBypassWhenPinsBlockEviction(t *testing.T) {
	_, rt := newCachedAPU(t, CacheOptions{Enabled: true, CapacityBytes: 4 << 10})
	src := mkInput(t, rt, "in", 16<<10)
	dram := rt.Tree().Root().Children[0]
	_, err := rt.Run("bypass", func(c *Ctx) error {
		a, err := c.MoveDataDownCached(dram, src, 0, 4<<10) // fills the pool, pinned
		if err != nil {
			return err
		}
		b, err := c.MoveDataDownCached(dram, src, 4<<10, 4<<10) // nothing evictable
		if err != nil {
			return err
		}
		if rt.CacheStats().Bypasses != 1 {
			return fmt.Errorf("bypasses=%d", rt.CacheStats().Bypasses)
		}
		if b.Bytes()[0] != pat(4<<10) {
			return fmt.Errorf("bypass served wrong bytes")
		}
		// Oversized extents bypass too.
		huge, err := c.MoveDataDownCached(dram, src, 0, 8<<10)
		if err != nil {
			return err
		}
		if rt.CacheStats().Bypasses != 2 {
			return fmt.Errorf("oversized extent not bypassed")
		}
		for _, buf := range []*Buffer{a, b, huge} {
			if err := c.Unpin(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCachedBufferReleaseRefusedAndWriteRefused(t *testing.T) {
	_, rt := newCachedAPU(t, CacheOptions{Enabled: true, CapacityBytes: 1 << 20})
	src := mkInput(t, rt, "in", 4096)
	dram := rt.Tree().Root().Children[0]
	_, err := rt.Run("guards", func(c *Ctx) error {
		b, err := c.MoveDataDownCached(dram, src, 0, 4096)
		if err != nil {
			return err
		}
		if err := c.Release(b); err == nil {
			return fmt.Errorf("release of cache-owned buffer accepted")
		}
		scratch, err := c.AllocAt(dram, 4096)
		if err != nil {
			return err
		}
		if err := c.MoveData(b, scratch, 0, 0, 4096); err == nil {
			return fmt.Errorf("move into cache-owned buffer accepted")
		}
		if err := c.Release(scratch); err != nil {
			return err
		}
		return c.Unpin(b)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCacheInvalidationOnWrite(t *testing.T) {
	_, rt := newCachedAPU(t, CacheOptions{Enabled: true, CapacityBytes: 1 << 20})
	src := mkInput(t, rt, "in", 8192)
	dram := rt.Tree().Root().Children[0]
	_, err := rt.Run("invalidate", func(c *Ctx) error {
		b, err := c.MoveDataDownCached(dram, src, 0, 4096)
		if err != nil {
			return err
		}
		if err := c.Unpin(b); err != nil {
			return err
		}
		// Overwrite the cached range of the source file.
		patch, err := c.AllocAt(dram, 512)
		if err != nil {
			return err
		}
		for i := range patch.Bytes() {
			patch.Bytes()[i] = 0xAA
		}
		if err := c.MoveData(src, patch, 1024, 0, 512); err != nil {
			return err
		}
		if err := c.Release(patch); err != nil {
			return err
		}
		if rt.CacheStats().Invalidations != 1 {
			return fmt.Errorf("invalidations=%d", rt.CacheStats().Invalidations)
		}
		// The re-read must miss and see the new bytes.
		before := rt.CacheStats().Misses
		b2, err := c.MoveDataDownCached(dram, src, 0, 4096)
		if err != nil {
			return err
		}
		if rt.CacheStats().Misses != before+1 {
			return fmt.Errorf("stale entry served after overwrite")
		}
		if b2.Bytes()[1024] != 0xAA {
			return fmt.Errorf("re-read missed the overwrite")
		}
		return c.Unpin(b2)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCacheInvalidationOfPinnedEntryDooms(t *testing.T) {
	_, rt := newCachedAPU(t, CacheOptions{Enabled: true, CapacityBytes: 1 << 20})
	src := mkInput(t, rt, "in", 8192)
	dram := rt.Tree().Root().Children[0]
	_, err := rt.Run("doom", func(c *Ctx) error {
		b, err := c.MoveDataDownCached(dram, src, 0, 4096) // pinned
		if err != nil {
			return err
		}
		patch, err := c.AllocAt(dram, 512)
		if err != nil {
			return err
		}
		if err := c.MoveData(src, patch, 0, 0, 512); err != nil {
			return err
		}
		if err := c.Release(patch); err != nil {
			return err
		}
		// The doomed entry is invisible: a fresh fetch misses and gets the
		// new bytes, while b stays usable until unpinned.
		before := rt.CacheStats().Misses
		b2, err := c.MoveDataDownCached(dram, src, 0, 4096)
		if err != nil {
			return err
		}
		if rt.CacheStats().Misses != before+1 {
			return fmt.Errorf("doomed entry served a hit")
		}
		if b2 == b {
			return fmt.Errorf("doomed entry re-surfaced")
		}
		if err := c.Unpin(b); err != nil { // frees the doomed buffer
			return err
		}
		return c.Unpin(b2)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCachedFetchUnderFaultsCountsOneMiss(t *testing.T) {
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 256, DRAMMiB: 32})
	opts := DefaultOptions()
	opts.Cache = CacheOptions{Enabled: true, CapacityBytes: 1 << 20}
	opts.Faults = fault.New(e, fault.Config{Seed: 7, TransferFailRate: 0.5})
	rt := NewRuntime(e, tree, opts)
	src := mkInput(t, rt, "in", 32<<10)
	dram := tree.Root().Children[0]

	_, err := rt.Run("faulted", func(c *Ctx) error {
		for round := 0; round < 2; round++ {
			for i := int64(0); i < 4; i++ {
				off := i * (8 << 10)
				b, err := c.MoveDataDownCached(dram, src, off, 8<<10)
				if err != nil {
					return err
				}
				if b.Bytes()[7] != pat(off+7) {
					return fmt.Errorf("extent %d round %d served corrupt bytes", i, round)
				}
				if err := c.Unpin(b); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Resilience().Retries == 0 {
		t.Fatal("fault injection never engaged; test proves nothing")
	}
	cs := rt.CacheStats()
	// Retried fills must not double-count: one miss per extent, then hits.
	if cs.Misses != 4 || cs.Hits != 4 {
		t.Fatalf("hits=%d misses=%d under faults", cs.Hits, cs.Misses)
	}
}

func TestPrefetchOverlapsAndCounts(t *testing.T) {
	_, rt := newCachedAPU(t, CacheOptions{Enabled: true, CapacityBytes: 1 << 20, Prefetch: true})
	src := mkInput(t, rt, "in", 16<<10)
	dram := rt.Tree().Root().Children[0]
	_, err := rt.Run("prefetch", func(c *Ctx) error {
		c.Prefetch(dram, src, 0, 4096)
		// The demand fetch arrives while (or after) the prefetch flies; it
		// must coalesce onto the same entry, not fetch twice.
		b, err := c.MoveDataDownCached(dram, src, 0, 4096)
		if err != nil {
			return err
		}
		if b.Bytes()[7] != pat(7) {
			return fmt.Errorf("prefetched entry has wrong bytes")
		}
		cs := rt.CacheStats()
		if cs.Prefetches != 1 || cs.PrefetchHits != 1 {
			return fmt.Errorf("prefetches=%d prefetchHits=%d", cs.Prefetches, cs.PrefetchHits)
		}
		if cs.Misses != 0 {
			return fmt.Errorf("demand fetch missed despite prefetch")
		}
		// A second prefetch of a resident extent is a no-op.
		c.Prefetch(dram, src, 0, 4096)
		if rt.CacheStats().Prefetches != 1 {
			return fmt.Errorf("prefetch of resident extent issued")
		}
		// Invalid prefetches are silently ignored.
		c.Prefetch(dram, src, -1, 4096)
		c.Prefetch(dram, src, 0, 1<<30)
		return c.Unpin(b)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchDisabledIsNoOp(t *testing.T) {
	_, rt := newCachedAPU(t, CacheOptions{Enabled: true, CapacityBytes: 1 << 20})
	src := mkInput(t, rt, "in", 4096)
	dram := rt.Tree().Root().Children[0]
	_, err := rt.Run("noop", func(c *Ctx) error {
		c.Prefetch(dram, src, 0, 4096)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs := rt.CacheStats(); cs.Prefetches != 0 {
		t.Fatalf("prefetches=%d with prefetch disabled", cs.Prefetches)
	}
}

func TestAllocPressureEvictsCacheEntries(t *testing.T) {
	// An application allocation larger than the remaining free bytes must
	// squeeze resident cache entries out instead of failing, one LRU entry
	// at a time, and stop as soon as it fits.
	_, rt := newCachedAPU(t, CacheOptions{Enabled: true, CapacityBytes: 512 << 10})
	src := mkInput(t, rt, "in", 1<<20)
	dram := rt.Tree().Root().Children[0]
	free := dram.Mem.Free()
	_, err := rt.Run("pressure", func(c *Ctx) error {
		for off := int64(0); off < 512<<10; off += 128 << 10 {
			b, err := c.MoveDataDownCached(dram, src, off, 128<<10)
			if err != nil {
				return err
			}
			if err := c.Unpin(b); err != nil {
				return err
			}
		}
		// Two of the four cached entries must give ground.
		big, err := c.AllocAt(dram, free-(256<<10))
		if err != nil {
			return fmt.Errorf("allocation despite evictable cache failed: %w", err)
		}
		if ev := rt.CacheStats().Evictions; ev != 2 {
			return fmt.Errorf("%d evictions under allocation pressure, want 2", ev)
		}
		if n := rt.cacheOf(dram.ID).pool.Len(); n != 2 {
			return fmt.Errorf("%d entries still cached, want 2", n)
		}
		return c.Release(big)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCachedMoveEdgeValidation(t *testing.T) {
	_, rt := newCachedAPU(t, CacheOptions{Enabled: true, CapacityBytes: 1 << 20})
	src := mkInput(t, rt, "in", 4096)
	dram := rt.Tree().Root().Children[0]
	_, err := rt.Run("edges", func(c *Ctx) error {
		// Wrong edge: from a child context, dram is not a child of dram.
		err := c.Descend(dram, func(dc *Ctx) error {
			_, err := dc.MoveDataDownCached(dram, src, 0, 4096)
			return err
		})
		if err == nil {
			return fmt.Errorf("skip-level cached move accepted")
		}
		if _, err := c.MoveDataDownCached(dram, src, 0, 8192); err == nil {
			return fmt.Errorf("out-of-range cached move accepted")
		}
		if _, err := c.MoveDataDownCached(dram, nil, 0, 1); err == nil {
			return fmt.Errorf("nil-source cached move accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pin/Unpin of plain buffers is refused.
	_, err = rt.Run("pins", func(c *Ctx) error {
		b, err := c.AllocAt(dram, 64)
		if err != nil {
			return err
		}
		if err := c.Pin(b); err == nil {
			return fmt.Errorf("pin of a plain buffer accepted")
		}
		if err := c.Unpin(b); err == nil {
			return fmt.Errorf("unpin of a plain buffer accepted")
		}
		return c.Release(b)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCacheReport(t *testing.T) {
	_, rt := newCachedAPU(t, CacheOptions{Enabled: true, CapacityShare: 0.25, Prefetch: true})
	src := mkInput(t, rt, "in", 4096)
	dram := rt.Tree().Root().Children[0]
	if _, err := rt.Run("warm", func(c *Ctx) error {
		b, err := c.MoveDataDownCached(dram, src, 0, 4096)
		if err != nil {
			return err
		}
		return c.Unpin(b)
	}); err != nil {
		t.Fatal(err)
	}
	rep := rt.CacheReport()
	if !strings.Contains(rep, "lru+prefetch") || !strings.Contains(rep, "8 MiB") {
		t.Fatalf("report missing policy or 25%%-of-32MiB capacity:\n%s", rep)
	}
	if !strings.Contains(rep, "1 entries") {
		t.Fatalf("report missing occupancy:\n%s", rep)
	}
	off := NewRuntime(sim.NewEngine(), rt.Tree(), DefaultOptions())
	if rep := off.CacheReport(); !strings.Contains(rep, "off") {
		t.Fatalf("disabled report: %s", rep)
	}
}

func TestParallelForNeverDropsErrors(t *testing.T) {
	_, rt := newAPURuntime(t)
	boom := errors.New("boom")
	for _, width := range []int{1, 3, 8} {
		_, err := rt.Run("pf", func(c *Ctx) error {
			return c.ParallelFor(32, width, func(sub *Ctx, i int) error {
				sub.Proc().Sleep(sim.Microseconds(float64(i % 5)))
				if i%3 == 0 {
					return fmt.Errorf("%w at %d", boom, i)
				}
				return nil
			})
		})
		if !errors.Is(err, boom) {
			t.Fatalf("width %d: error dropped: %v", width, err)
		}
	}
}

func TestPipelineNeverDropsErrors(t *testing.T) {
	_, rt := newAPURuntime(t)
	boom := errors.New("boom")
	// Errors injected in every stage, at staggered items, with sleeps to
	// force interleaving at blocking points.
	for _, depth := range []int{1, 2, 4} {
		_, err := rt.Run("pipe", func(c *Ctx) error {
			return c.Pipeline(16, depth,
				func(sub *Ctx, i int) error {
					sub.Proc().Sleep(sim.Microseconds(2))
					if i == 11 {
						return fmt.Errorf("%w stage0 item %d", boom, i)
					}
					return nil
				},
				func(sub *Ctx, i int) error {
					sub.Proc().Sleep(sim.Microseconds(3))
					if i == 5 {
						return fmt.Errorf("%w stage1 item %d", boom, i)
					}
					return nil
				},
				func(sub *Ctx, i int) error {
					sub.Proc().Sleep(sim.Microseconds(1))
					return nil
				},
			)
		})
		if !errors.Is(err, boom) {
			t.Fatalf("depth %d: error dropped: %v", depth, err)
		}
	}
}

// TestInvalidationRunsInNodeOrder writes into a file range cached at two
// nodes, a DRAM and an NVM child of the SSD root, the NVM copy staged
// first. Both write paths, MoveData and a streamed move's hop, must
// invalidate the DRAM cache before the NVM cache (node-ID order, not
// creation order) and give one trace over 20 runs.
func TestInvalidationRunsInNodeOrder(t *testing.T) {
	const n = 512 << 10
	write := map[string]func(c *Ctx, dst, src *Buffer) error{
		"move": func(c *Ctx, dst, src *Buffer) error { return c.MoveData(dst, src, 0, 0, n) },
		"streamed": func(c *Ctx, dst, src *Buffer) error {
			return c.MoveDataUpStreamed(dst, src, 0, 0, n, StreamOptions{})
		},
	}
	run := func(t *testing.T, name string) (hash uint64, order []int) {
		e := sim.NewEngine()
		b := topo.NewBuilder(e)
		root := b.Root(device.SSDProfile(64*device.MiB, 1400, 600))
		b.Attach(b.Child(root, device.DRAMProfile(16*device.MiB)), gpu.APUCPU(e))
		b.Attach(b.Child(root, device.NVMProfile(16*device.MiB)), gpu.APUCPU(e))
		tree := b.MustBuild()
		rec := trace.NewRecorder(trace.Options{})
		opts := DefaultOptions()
		opts.Trace = rec
		opts.Cache = CacheOptions{Enabled: true, CapacityBytes: 4 << 20}
		rt := NewRuntime(e, tree, opts)
		dram, nvm := tree.Node(1), tree.Node(2)
		src := mkInput(t, rt, "in", n)
		_, err := rt.Run(name, func(c *Ctx) error {
			for _, child := range []*topo.Node{nvm, dram} {
				cb, err := c.MoveDataDownCached(child, src, 0, n)
				if err != nil {
					return err
				}
				if err := c.Unpin(cb); err != nil {
					return err
				}
			}
			patch, err := c.AllocAt(dram, n)
			if err != nil {
				return err
			}
			if err := write[name](c, src, patch); err != nil {
				return err
			}
			return c.Release(patch)
		})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, ev := range rec.Events() {
			fmt.Fprintf(h, "%d|%d|%s|%d|%s|%d|%d|%d|%d\n", ev.Kind, ev.Cat, ev.Name,
				ev.Lane.Node, ev.Lane.Track, ev.Start, ev.Dur, ev.Value, ev.Seq)
			if ev.Name == "invalidate" {
				order = append(order, ev.Lane.Node)
			}
		}
		return h.Sum64(), order
	}
	for name := range write {
		t.Run(name, func(t *testing.T) {
			want, order := run(t, name)
			if !slices.Equal(order, []int{1, 2}) {
				t.Fatalf("invalidated caches at nodes %v, want [1 2]", order)
			}
			for i := 1; i < 20; i++ {
				if got, _ := run(t, name); got != want {
					t.Fatalf("run %d: trace hash %016x, run 0: %016x", i, got, want)
				}
			}
		})
	}
}
