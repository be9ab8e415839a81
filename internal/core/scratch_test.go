package core

import (
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestFileToFileMoveUsesScratchPool guards the hoisted scratch buffer: a
// file-to-file move must reuse pooled scratch instead of allocating n fresh
// bytes on every attempt inside the retry loop. Bookkeeping allocations
// (engine event scheduling) are small and size-independent, so the guard is
// on bytes: the steady state must allocate far less than the n-byte scratch
// copy a regression would reintroduce.
func TestFileToFileMoveUsesScratchPool(t *testing.T) {
	const n = 256 << 10
	const rounds = 16
	_, rt := newAPURuntime(t)
	src := mkInput(t, rt, "src", n)
	var bytesPerMove uint64
	_, err := rt.Run("warm", func(c *Ctx) error {
		dst, err := c.AllocAt(rt.Tree().Root(), n)
		if err != nil {
			return err
		}
		// Warm the pool, then measure steady-state allocation volume.
		if err := rt.MoveData(c.p, dst, src, 0, 0, n); err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < rounds; i++ {
			if err := rt.moveOnce(c.p, dst, src, 0, 0, flat(n, "move_data", spanMove)); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&m1)
		bytesPerMove = (m1.TotalAlloc - m0.TotalAlloc) / rounds
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bytesPerMove > n/4 {
		t.Fatalf("file-to-file move allocates %d B per attempt after pool warm-up; the %d B scratch is not being pooled", bytesPerMove, n)
	}
}

// TestScratchPoolReusesBacking asserts the pool hands back the same backing
// array instead of growing without bound.
func TestScratchPoolReusesBacking(t *testing.T) {
	_, rt := newAPURuntime(t)
	a := rt.getScratch(4096)
	rt.putScratch(a)
	b := rt.getScratch(1024)
	if &a[0] != &b[0] {
		t.Fatal("pool did not reuse the larger scratch buffer for a smaller request")
	}
	rt.putScratch(b)
	if len(rt.scratch) != 1 {
		t.Fatalf("pool holds %d entries after symmetric get/put, want 1", len(rt.scratch))
	}
}

// TestPrefetchErrorsCounted guards the silent-drop fix: a lookahead fill
// that fails after exhausting retries must be counted in CacheStats and
// mirrored into the metrics registry, not swallowed.
func TestPrefetchErrorsCounted(t *testing.T) {
	const n = 64 << 10
	e := sim.NewEngine()
	tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 256, DRAMMiB: 32})
	opts := DefaultOptions()
	opts.Cache = CacheOptions{Enabled: true, Prefetch: true, CapacityBytes: 1 << 20}
	opts.Faults = fault.New(e, fault.Config{Seed: 3, TransferFailRate: 1.0})
	opts.Retry = RetryPolicy{MaxRetries: 1, BaseBackoff: sim.Microseconds(10)}
	opts.Metrics = obs.NewRegistry()
	rt := NewRuntime(e, tree, opts)
	src := mkInput(t, rt, "in", n)
	_, err := rt.Run("prefetch-fail", func(c *Ctx) error {
		c.Prefetch(c.Children()[0], src, 0, n)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cs := rt.CacheStats()
	if cs.PrefetchErrors == 0 {
		t.Fatal("failed prefetch not counted in CacheStats.PrefetchErrors")
	}
	flat := opts.Metrics.Flatten()
	if got := int64(flat["northup_cache_prefetch_errors_total"]); got != cs.PrefetchErrors {
		t.Fatalf("registry prefetch errors %d != stats %d", got, cs.PrefetchErrors)
	}
}
