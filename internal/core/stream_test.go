package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// streamPattern fills n bytes with a position-dependent pattern so any
// reordering or duplication of sub-chunks is visible in a byte compare.
func streamPattern(n int64) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	return data
}

// gpuLeaf returns the deepest first-child node of the tree.
func gpuLeaf(rt *Runtime) *topo.Node {
	n := rt.tree.Root()
	for len(n.Children) > 0 {
		n = n.Children[0]
	}
	return n
}

func TestStreamedDownBitIdentical(t *testing.T) {
	const n = 1<<20 + 13 // intentionally not a multiple of the chunk count
	want := streamPattern(n)
	for _, subChunks := range []int{1, 3, 5, 8} {
		_, rt := newDiscreteRuntime(t)
		src, err := rt.CreateInput(rt.tree.Root(), "in", n, want)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		_, err = rt.Run("stream", func(c *Ctx) error {
			dst, err := c.AllocAt(gpuLeaf(rt), n)
			if err != nil {
				return err
			}
			if err := c.MoveDataDownStreamed(dst, src, 0, 0, n,
				StreamOptions{SubChunks: subChunks}); err != nil {
				return err
			}
			got = append([]byte(nil), dst.Bytes()...)
			return c.Release(dst)
		})
		if err != nil {
			t.Fatalf("subChunks=%d: %v", subChunks, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("subChunks=%d: streamed bytes differ from source", subChunks)
		}
	}
}

func TestStreamedUpBitIdentical(t *testing.T) {
	const n = 512<<10 + 7
	want := streamPattern(n)
	_, rt := newDiscreteRuntime(t)
	_, err := rt.Run("stream-up", func(c *Ctx) error {
		leaf := gpuLeaf(rt)
		src, err := c.AllocAt(leaf, n)
		if err != nil {
			return err
		}
		copy(src.Bytes(), want)
		dst, err := c.AllocAt(rt.tree.Root(), n) // file-backed at the root
		if err != nil {
			return err
		}
		if err := c.MoveDataUpStreamed(dst, src, 0, 0, n,
			StreamOptions{SubChunks: 4}); err != nil {
			return err
		}
		// Read the file back through a monolithic move and compare.
		check, err := c.AllocAt(rt.tree.Root().Children[0], n)
		if err != nil {
			return err
		}
		if err := rt.MoveData(c.p, check, dst, 0, 0, n); err != nil {
			return err
		}
		if !bytes.Equal(check.Bytes(), want) {
			t.Error("streamed-up bytes differ from source")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStreamedMatchesMonolithicBytes(t *testing.T) {
	// The streamed path and a hand-rolled store-and-forward chain must
	// produce identical destination bytes.
	const n = 768 << 10
	want := streamPattern(n)

	runOnce := func(streamed bool) []byte {
		_, rt := newDiscreteRuntime(t)
		src, err := rt.CreateInput(rt.tree.Root(), "in", n, want)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		_, err = rt.Run("move", func(c *Ctx) error {
			leaf := gpuLeaf(rt)
			dst, err := c.AllocAt(leaf, n)
			if err != nil {
				return err
			}
			if streamed {
				if err := c.MoveDataDownStreamed(dst, src, 0, 0, n,
					StreamOptions{SubChunks: 6, Depth: 3}); err != nil {
					return err
				}
			} else {
				mid, err := c.AllocAt(rt.tree.Root().Children[0], n)
				if err != nil {
					return err
				}
				if err := rt.MoveData(c.p, mid, src, 0, 0, n); err != nil {
					return err
				}
				if err := rt.MoveData(c.p, dst, mid, 0, 0, n); err != nil {
					return err
				}
			}
			got = append([]byte(nil), dst.Bytes()...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	if !bytes.Equal(runOnce(true), runOnce(false)) {
		t.Fatal("streamed and store-and-forward bytes differ")
	}
}

func TestStreamedFaultsRetriedBitIdentical(t *testing.T) {
	const n = 1 << 20
	want := streamPattern(n)
	e := sim.NewEngine()
	tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
		StorageMiB: 256, DRAMMiB: 64, GPUMemMiB: 32})
	opts := DefaultOptions()
	opts.Faults = fault.New(e, fault.Config{Seed: 11, TransferFailRate: 0.4})
	rt := NewRuntime(e, tree, opts)
	src, err := rt.CreateInput(tree.Root(), "in", n, want)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	_, err = rt.Run("stream-faulty", func(c *Ctx) error {
		dst, err := c.AllocAt(gpuLeaf(rt), n)
		if err != nil {
			return err
		}
		if err := c.MoveDataDownStreamed(dst, src, 0, 0, n,
			StreamOptions{SubChunks: 7}); err != nil {
			return err
		}
		got = append([]byte(nil), dst.Bytes()...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Resilience().Retries == 0 {
		t.Fatal("injector produced no retries; test is vacuous")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("streamed bytes differ from source under injected faults")
	}
}

func TestStreamedSingleHopAdaptiveDegeneratesToMonolithic(t *testing.T) {
	// One hop, no consumer: the sizer must pick one sub-chunk and the
	// elapsed time must match the plain MoveDataDown exactly.
	const n = 8 << 20
	elapsed := func(streamed bool) sim.Time {
		e := sim.NewEngine()
		tree := topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 256, DRAMMiB: 64})
		opts := DefaultOptions()
		opts.Phantom = true
		rt := NewRuntime(e, tree, opts)
		stats, err := rt.Run("move", func(c *Ctx) error {
			src, err := c.Alloc(n)
			if err != nil {
				return err
			}
			dst, err := c.AllocAt(tree.Root().Children[0], n)
			if err != nil {
				return err
			}
			if streamed {
				return c.MoveDataDownStreamed(dst, src, 0, 0, n, StreamOptions{})
			}
			return c.MoveDataDown(dst, src, 0, 0, n)
		})
		if err != nil {
			t.Fatal(err)
		}
		if streamed {
			ss := rt.StreamStats()
			if ss.Streams != 1 || ss.SubChunks != 1 {
				t.Fatalf("adaptive single-hop stats = %+v, want 1 stream x 1 sub-chunk", ss)
			}
		}
		return stats.Elapsed
	}
	if s, m := elapsed(true), elapsed(false); s != m {
		t.Fatalf("adaptive single-hop streamed elapsed %v != monolithic %v", s, m)
	}
}

func TestStreamedMultiHopOverlapFaster(t *testing.T) {
	// Two hops (SSD -> DRAM -> GPU memory): pipelining sub-chunks must beat
	// store-and-forward even without a consumer.
	const n = 64 << 20
	elapsed := func(subChunks int) sim.Time {
		e := sim.NewEngine()
		tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
			StorageMiB: 512, DRAMMiB: 256, GPUMemMiB: 128})
		opts := DefaultOptions()
		opts.Phantom = true
		rt := NewRuntime(e, tree, opts)
		src, err := rt.CreateInput(tree.Root(), "in", n, nil)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := rt.Run("stream", func(c *Ctx) error {
			dst, err := c.AllocAt(gpuLeaf(rt), n)
			if err != nil {
				return err
			}
			return c.MoveDataDownStreamed(dst, src, 0, 0, n,
				StreamOptions{SubChunks: subChunks})
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Elapsed
	}
	serial, streamed := elapsed(1), elapsed(8)
	if streamed >= serial {
		t.Fatalf("streamed (%v) not faster than store-and-forward (%v)", streamed, serial)
	}
	if ratio := float64(serial) / float64(streamed); ratio < 1.05 {
		t.Fatalf("transfer-only overlap speedup %.3f < 1.05", ratio)
	}
}

func TestStreamedConsumerOverlapSpeedup(t *testing.T) {
	// With a consumer whose per-chunk compute is comparable to the I/O,
	// streaming at >= 3 sub-chunks must deliver the paper's >= 1.3x win
	// over the store-and-forward + compute-at-the-end baseline.
	const n = 64 << 20
	elapsed := func(subChunks int) sim.Time {
		e := sim.NewEngine()
		tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
			StorageMiB: 512, DRAMMiB: 256, GPUMemMiB: 128})
		opts := DefaultOptions()
		opts.Phantom = true
		rt := NewRuntime(e, tree, opts)
		src, err := rt.CreateInput(tree.Root(), "in", n, nil)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := rt.Run("stream", func(c *Ctx) error {
			dst, err := c.AllocAt(gpuLeaf(rt), n)
			if err != nil {
				return err
			}
			// Model compute at ~SSD pace: the sum over chunks is constant
			// across sub-chunk counts, so only overlap changes the total.
			perByte := float64(sim.Second) / 1.4e9
			return c.MoveDataDownStreamed(dst, src, 0, 0, n, StreamOptions{
				SubChunks: subChunks,
				OnChunk: func(sub *Ctx, i int, off, sz int64) error {
					d := sim.Time(perByte * float64(sz))
					sub.Proc().Sleep(d)
					sub.ChargeGPU(d)
					return nil
				},
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Elapsed
	}
	serial, streamed := elapsed(1), elapsed(4)
	if ratio := float64(serial) / float64(streamed); ratio < 1.3 {
		t.Fatalf("consumer overlap speedup %.3f < 1.3 (serial %v, streamed %v)",
			ratio, serial, streamed)
	}
}

func TestStreamedTraceInterleavesAndTotalsMatch(t *testing.T) {
	// The trace must show per-hop spans overlapping in time on different
	// lanes, and every span total must still reconcile with the Breakdown
	// bit-for-bit (the stream engine adds only structural None spans).
	const n = 16 << 20
	rec := trace.NewRecorder(trace.Options{})
	e := sim.NewEngine()
	tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
		StorageMiB: 256, DRAMMiB: 128, GPUMemMiB: 64})
	opts := DefaultOptions()
	opts.Phantom = true
	opts.Trace = rec
	rt := NewRuntime(e, tree, opts)
	src, err := rt.CreateInput(tree.Root(), "in", n, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run("stream", func(c *Ctx) error {
		dst, err := c.AllocAt(gpuLeaf(rt), n)
		if err != nil {
			return err
		}
		return c.MoveDataDownStreamed(dst, src, 0, 0, n, StreamOptions{SubChunks: 8})
	})
	if err != nil {
		t.Fatal(err)
	}

	evs := rec.Events()
	// (a) hop spans appear on per-node stream lanes for both hops.
	hopLanes := map[trace.Lane][]trace.Event{}
	for _, ev := range evs {
		if ev.Kind == trace.KindSpan && ev.Name == spanStreamHop {
			hopLanes[ev.Lane] = append(hopLanes[ev.Lane], ev)
		}
	}
	if len(hopLanes) != 2 {
		t.Fatalf("hop spans on %d lanes, want 2 (one per hop)", len(hopLanes))
	}
	// (b) spans from different hops interleave: some hop-1 span starts
	// before the last hop-0 span ends.
	var lanes []trace.Lane
	for l := range hopLanes {
		lanes = append(lanes, l)
	}
	if lanes[0].Node > lanes[1].Node {
		lanes[0], lanes[1] = lanes[1], lanes[0]
	}
	first, second := hopLanes[lanes[0]], hopLanes[lanes[1]]
	lastFirstEnd := first[len(first)-1].Start + first[len(first)-1].Dur
	if second[0].Start >= lastFirstEnd {
		t.Fatalf("hops do not interleave: hop-1 starts at %v, hop-0 ends at %v",
			second[0].Start, lastFirstEnd)
	}
	// (c) charged span totals equal the Breakdown, category by category.
	for _, cat := range trace.Categories {
		if got, want := rec.CategoryBusy(cat), rt.bd.Busy(cat); got != want {
			t.Fatalf("%v: recorder busy %v != breakdown %v", cat, got, want)
		}
	}
	// (d) ring occupancy was telemetered and stayed within depth.
	sawRing := false
	for _, ev := range evs {
		if ev.Kind == trace.KindCounter && ev.Name == ctrStreamRing {
			sawRing = true
			if ev.Value < 0 || ev.Value > 2 {
				t.Fatalf("ring occupancy %d outside [0,2]", ev.Value)
			}
		}
	}
	if !sawRing {
		t.Fatal("no ring-occupancy counter events recorded")
	}
}

func TestStreamedStatsAndMetrics(t *testing.T) {
	const n = 4 << 20
	e := sim.NewEngine()
	tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
		StorageMiB: 256, DRAMMiB: 64, GPUMemMiB: 32})
	opts := DefaultOptions()
	opts.Phantom = true
	opts.Metrics = obs.NewRegistry()
	rt := NewRuntime(e, tree, opts)
	src, err := rt.CreateInput(tree.Root(), "in", n, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Run("stream", func(c *Ctx) error {
		dst, err := c.AllocAt(gpuLeaf(rt), n)
		if err != nil {
			return err
		}
		return c.MoveDataDownStreamed(dst, src, 0, 0, n, StreamOptions{SubChunks: 4})
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := rt.StreamStats()
	if ss.Streams != 1 || ss.SubChunks != 4 || ss.HopMoves != 8 || ss.Bytes != n {
		t.Fatalf("stats = %+v", ss)
	}
	if ss.MaxInFlight < 2 || ss.MaxRing < 1 || ss.MaxRing > 2 {
		t.Fatalf("overlap telemetry out of range: %+v", ss)
	}
	flat := opts.Metrics.Flatten()
	if flat[mStreamMoves] != 1 || flat[mStreamSubChunks] != 4 || flat[mStreamBytes] != n {
		t.Fatalf("stream metrics = %v", flat)
	}
	if flat[mStreamHopMoves] != 8 {
		t.Fatalf("hop moves metric = %v, want 8", flat[mStreamHopMoves])
	}
}

func TestStreamedConsumerErrorPropagatesAndReleasesStaging(t *testing.T) {
	const n = 4 << 20
	_, rt := newDiscreteRuntime(t)
	src, err := rt.CreateInput(rt.tree.Root(), "in", n, nil)
	if err != nil {
		t.Fatal(err)
	}
	dram := rt.tree.Root().Children[0]
	before := rt.Allocator(dram).LiveCount()
	_, err = rt.Run("stream-err", func(c *Ctx) error {
		dst, err := c.AllocAt(gpuLeaf(rt), n)
		if err != nil {
			return err
		}
		defer func() { _ = c.Release(dst) }()
		return c.MoveDataDownStreamed(dst, src, 0, 0, n, StreamOptions{
			SubChunks: 4,
			OnChunk: func(sub *Ctx, i int, off, sz int64) error {
				if i == 1 {
					return errStreamTest
				}
				return nil
			},
		})
	})
	if err == nil || !strings.Contains(err.Error(), "stream test") {
		t.Fatalf("err = %v, want the consumer error", err)
	}
	if after := rt.Allocator(dram).LiveCount(); after != before {
		t.Fatalf("staging leak at DRAM: used %d -> %d", before, after)
	}
}

func TestStreamedRejectsBadEndpoints(t *testing.T) {
	_, rt := newDiscreteRuntime(t)
	_, err := rt.Run("bad", func(c *Ctx) error {
		leaf := gpuLeaf(rt)
		a, err := c.AllocAt(leaf, 4096)
		if err != nil {
			return err
		}
		b, err := c.AllocAt(leaf, 4096)
		if err != nil {
			return err
		}
		if err := c.MoveDataDownStreamed(a, b, 0, 0, 4096, StreamOptions{}); err == nil {
			t.Error("down-stream between two leaf buffers not rejected")
		}
		if err := c.MoveDataUpStreamed(a, b, 0, 0, 4096, StreamOptions{}); err == nil {
			t.Error("up-stream between two leaf buffers not rejected")
		}
		root, err := c.Alloc(4096)
		if err != nil {
			return err
		}
		if err := c.MoveDataDownStreamed(a, root, 0, 4096, 4096, StreamOptions{}); err == nil {
			t.Error("out-of-range source not rejected")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

var errStreamTest = &streamTestError{}

type streamTestError struct{}

func (*streamTestError) Error() string { return "stream test consumer failure" }

// TestStreamedMoveAllocsPerSubChunk holds the pump to its allocation
// budget: each extra sub-chunk of a streamed move may cost only the two
// closures the device layer allocates per callback-driven charge (the
// acquire and the timer); the pump's own per-sub-chunk state and
// continuations are allocated once per stream. A zero-rate fault injector
// keeps the fault checks on the path without injecting anything.
func TestStreamedMoveAllocsPerSubChunk(t *testing.T) {
	const n = 8 << 20
	allocs := func(discrete bool, subChunks int) float64 {
		return testing.AllocsPerRun(5, func() {
			e := sim.NewEngine()
			var tree *topo.Tree
			if discrete {
				tree = topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
					StorageMiB: 64, DRAMMiB: 32, GPUMemMiB: 32})
			} else {
				tree = topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 32})
			}
			opts := DefaultOptions()
			opts.Phantom = true
			opts.Faults = fault.New(e, fault.Config{Seed: 1})
			rt := NewRuntime(e, tree, opts)
			dram := tree.Root().Children[0]
			o := StreamOptions{SubChunks: subChunks}
			_, err := rt.Run("allocs", func(c *Ctx) error {
				if !discrete { // file -> DRAM
					src, err := rt.CreateInput(tree.Root(), "in", n, nil)
					if err != nil {
						return err
					}
					dst, err := c.AllocAt(dram, n)
					if err != nil {
						return err
					}
					return c.MoveDataDownStreamed(dst, src, 0, 0, n, o)
				}
				return c.Descend(dram, func(d *Ctx) error { // DRAM -> GPU
					src, err := d.Alloc(n)
					if err != nil {
						return err
					}
					dst, err := d.AllocAt(gpuLeaf(rt), n)
					if err != nil {
						return err
					}
					return d.MoveDataDownStreamed(dst, src, 0, 0, n, o)
				})
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		name     string
		discrete bool
	}{{"file->dram", false}, {"dram->gpu", true}} {
		few, many := allocs(tc.discrete, 4), allocs(tc.discrete, 20)
		if per := (many - few) / 16; per > 2 {
			t.Errorf("%s: %.2f allocations per extra sub-chunk (%v at 4, %v at 20), want <= 2",
				tc.name, per, few, many)
		}
	}
}

// TestAsyncMoveMatchesMoveData holds a hop's move to the blocking one: for
// every endpoint kind — clean, under transfer faults, with a firing retry
// deadline, and with cached copies of a file destination to invalidate — a
// run of asyncMoves must charge, draw, retry and trace exactly what the
// same run of MoveData calls does.
func TestAsyncMoveMatchesMoveData(t *testing.T) {
	const n, moves = 1 << 20, 6
	buf := func(leaf bool) func(c *Ctx) (*Buffer, error) {
		return func(c *Ctx) (*Buffer, error) {
			node := c.rt.tree.Root().Children[0]
			if leaf {
				node = gpuLeaf(c.rt)
			}
			return c.AllocAt(node, n)
		}
	}
	input := func(c *Ctx) (*Buffer, error) {
		return c.rt.CreateInput(c.rt.tree.Root(), "in", n, streamPattern(n))
	}
	file := func(c *Ctx) (*Buffer, error) { return c.Alloc(n) }
	kinds := []struct {
		name     string
		src, dst func(c *Ctx) (*Buffer, error)
	}{
		{"file->dram", input, buf(false)},
		{"file->gpu", input, buf(true)},
		{"dram->file", buf(false), input},
		{"gpu->file", buf(true), input},
		{"file->file", input, file},
		{"dram->gpu", buf(false), buf(true)},
		{"gpu->dram", buf(true), buf(false)},
	}
	modes := []goldenStreamCase{
		{name: "clean"},
		{name: "faults", faults: &fault.Config{Seed: 3, TransferFailRate: 0.3, TransferDelayRate: 0.3}},
		{name: "deadline", faults: &fault.Config{Seed: 4, TransferDelayRate: 0.4, TransferDelay: sim.Milliseconds(3)},
			retry: RetryPolicy{MaxRetries: 8, OpTimeout: sim.Milliseconds(2)}},
		{name: "cache", cache: true},
	}
	for _, k := range kinds {
		for _, mode := range modes {
			run := func(async bool) string {
				tc := mode
				tc.discrete = true
				tc.body = func(c *Ctx) error {
					src, err := k.src(c)
					if err != nil {
						return err
					}
					dst, err := k.dst(c)
					if err != nil {
						return err
					}
					if tc.cache && dst.file != nil {
						for i := int64(0); i < 3; i++ {
							b, err := c.MoveDataDownCached(c.rt.tree.Root().Children[0], dst, i*(n/3), n/4)
							if err != nil {
								return err
							}
							if err := c.Unpin(b); err != nil {
								return err
							}
						}
					}
					for i := int64(0); i < moves; i++ {
						off, sz := i*(n/moves), int64(n/moves)
						if !async {
							err = c.rt.MoveData(c.p, dst, src, off, off, sz)
						} else {
							done := sim.NewLatch(c.rt.engine)
							newAsyncMove(c.rt, func(e error) { err = e; done.Fire() }).begin(dst, src, off, off, sz)
							done.Wait(c.p)
						}
						if err != nil {
							return err
						}
					}
					return nil
				}
				return runGoldenStream(t, tc)
			}
			if blocking, async := run(false), run(true); blocking != async {
				t.Errorf("%s %s:\n MoveData  %s\n asyncMove %s", k.name, mode.name, blocking, async)
			}
		}
	}
}
