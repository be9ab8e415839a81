package core

import (
	"bytes"
	"reflect"
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
					sub.ChargeTask(sub.Proc().Name(), trace.GPUCompute, d)
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
	before := dram.Mem.Used()
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
	if after := dram.Mem.Used(); after != before {
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

// TestStreamedRefusesNegativeOptions: a negative SubChunks or Depth is
// refused by name in both directions, before anything moves, while zero
// keeps meaning the default (the adaptive sizer, double buffering).
func TestStreamedRefusesNegativeOptions(t *testing.T) {
	const n = 1 << 20
	_, rt := newDiscreteRuntime(t)
	stats, err := rt.Run("bad-options", func(c *Ctx) error {
		src, err := c.rt.CreateInput(rt.Tree().Root(), "in", n, streamPattern(n))
		if err != nil {
			return err
		}
		leaf, err := c.AllocAt(gpuLeaf(rt), n)
		if err != nil {
			return err
		}
		for _, tc := range []struct {
			o    StreamOptions
			want string
		}{
			{StreamOptions{SubChunks: -3}, "StreamOptions.SubChunks -3"},
			{StreamOptions{Depth: -1}, "StreamOptions.Depth -1"},
			{StreamOptions{SubChunks: 4, Depth: -2}, "StreamOptions.Depth -2"},
		} {
			down := c.MoveDataDownStreamed(leaf, src, 0, 0, n, tc.o)
			up := c.MoveDataUpStreamed(src, leaf, 0, 0, n, tc.o)
			for _, err := range []error{down, up} {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%+v: err = %v, want one naming %s", tc.o, err, tc.want)
				}
			}
		}
		if rt.StreamStats().Streams != 0 {
			t.Errorf("refused streams counted: %+v", rt.StreamStats())
		}
		return c.MoveDataDownStreamed(leaf, src, 0, 0, n, StreamOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if ss := rt.StreamStats(); ss.Streams != 1 || ss.HopMoves < 2 {
		t.Fatalf("zero options did not run the default stream: %+v", ss)
	}
	if stats.Breakdown.Busy(trace.IO) == 0 {
		t.Fatal("default stream moved nothing")
	}
}

var errStreamTest = &streamTestError{}

type streamTestError struct{}

func (*streamTestError) Error() string { return "stream test consumer failure" }

// TestStreamedMoveAllocsPerSubChunk holds the pump to its allocation
// budget: an extra sub-chunk of a streamed move costs nothing. The pump's
// per-sub-chunk state and continuations are bound once per pump, and its
// device and link charges run on each hop move's own device.Request. A
// zero-rate fault injector keeps the fault checks on the path without
// injecting anything.
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
		if many > few {
			t.Errorf("%s: %v allocations at 20 sub-chunks against %v at 4, want no more",
				tc.name, many, few)
		}
	}
}

// TestAsyncMoveMatchesMoveData holds a hop's move to the blocking one: for
// every endpoint kind — clean, under transfer faults, with a firing retry
// deadline, and with cached copies of a file destination to invalidate — a
// run of moves through one asyncMove must charge, draw, retry and trace
// exactly what the same run of MoveData calls does.
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
					// One asyncMove carries the whole run, as a hop's does.
					moved := sim.NewWaitGroup(c.rt.engine)
					mv := newAsyncMove(c.rt, func(e error) { err = e; moved.Done() })
					for i := int64(0); i < moves; i++ {
						off, sz := i*(n/moves), int64(n/moves)
						if !async {
							err = c.rt.MoveData(c.p, dst, src, off, off, sz)
						} else {
							moved.Add(1)
							mv.begin(dst, src, off, off, sz)
							moved.Wait(c.p)
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

// TestSecondStreamAllocatesOnlyItsStaging holds a runtime to its reuse of
// routes and pumps: a second identical two-hop stream allocates no more
// than its staging slots' AllocAt buffers, allocated and released by hand.
func TestSecondStreamAllocatesOnlyItsStaging(t *testing.T) {
	const n, subChunks, depth = 8 << 20, 8, 2
	allocs := func(streams int, slots bool) float64 {
		return testing.AllocsPerRun(5, func() {
			e := sim.NewEngine()
			tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
				StorageMiB: 64, DRAMMiB: 32, GPUMemMiB: 32})
			opts := DefaultOptions()
			opts.Phantom = true
			opts.Faults = fault.New(e, fault.Config{Seed: 1})
			rt := NewRuntime(e, tree, opts)
			src, err := rt.CreateInput(tree.Root(), "in", n, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, err = rt.Run("allocs", func(c *Ctx) error {
				dst, err := c.AllocAt(gpuLeaf(rt), n)
				if err != nil {
					return err
				}
				for i := 0; i < streams; i++ {
					if err := c.MoveDataDownStreamed(dst, src, 0, 0, n, StreamOptions{SubChunks: subChunks}); err != nil {
						return err
					}
				}
				for i := 0; slots && i < depth; i++ {
					b, err := c.AllocAt(tree.Root().Children[0], n/subChunks)
					if err != nil {
						return err
					}
					if err := c.Release(b); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, two := allocs(1, true), allocs(2, false); two > one {
		t.Errorf("two streams allocate %v, one stream and its staging %v", two, one)
	}
}

// TestStreamAfterFailedStreamMatchesFresh reuses a failed stream's pump: a
// clean two-hop stream on a runtime whose previous two-hop stream failed —
// its consumer erred, or a hop move gave up past its retries in a GPU
// outage — must land the same payload with the same per-hop span
// durations as the same stream on a fresh runtime.
func TestStreamAfterFailedStreamMatchesFresh(t *testing.T) {
	const n = 4<<20 + 13
	type hopSpan struct {
		node int
		dur  sim.Time
	}
	run := func(failing string) ([]byte, []hopSpan) {
		e := sim.NewEngine()
		tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
			StorageMiB: 64, DRAMMiB: 32, GPUMemMiB: 32})
		rec := trace.NewRecorder(trace.Options{})
		opts := DefaultOptions()
		opts.Trace = rec
		if failing == "fault" {
			// Back-to-back GPU outages: the first attempt of the first hop
			// move into the GPU waits out the first window, and its one
			// retry lands in the second and gives up.
			in := fault.New(e, fault.Config{Seed: 1})
			gpu := tree.Root().Children[0].Children[0].ID
			in.TakeNodeOffline(gpu, fault.Window{From: sim.Second, Until: 2 * sim.Second})
			in.TakeNodeOffline(gpu, fault.Window{From: 2 * sim.Second, Until: 3 * sim.Second})
			opts.Faults = in
			opts.Retry = RetryPolicy{MaxRetries: 1}
		}
		rt := NewRuntime(e, tree, opts)
		var payload []byte
		var resumed sim.Time
		stats, err := rt.Run("reuse", func(c *Ctx) error {
			src, err := rt.CreateInput(tree.Root(), "in", n, streamPattern(n))
			if err != nil {
				return err
			}
			dst, err := c.AllocAt(gpuLeaf(rt), n)
			if err != nil {
				return err
			}
			switch failing {
			case "consumer":
				err = c.MoveDataDownStreamed(dst, src, 0, 0, n, StreamOptions{SubChunks: 4,
					OnChunk: func(sub *Ctx, i int, off, sz int64) error {
						if i == 1 {
							return errStreamTest
						}
						return nil
					}})
			case "fault":
				c.p.Sleep(sim.Second)
				err = c.MoveDataDownStreamed(dst, src, 0, 0, n, StreamOptions{SubChunks: 4})
			}
			if failing != "" && err == nil {
				t.Errorf("%s: the first stream did not fail", failing)
			}
			c.p.Sleep(4*sim.Second - c.p.Now())
			clear(dst.Bytes())
			resumed = c.p.Now()
			if err := c.MoveDataDownStreamed(dst, src, 0, 0, n, StreamOptions{SubChunks: 6}); err != nil {
				return err
			}
			payload = append(payload, dst.Bytes()...)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", failing, err)
		}
		if failing == "fault" && (stats.Resilience.Retries != 1 || stats.Resilience.GaveUp != 1) {
			t.Errorf("fault: resilience %v, want one retry that gave up", stats.Resilience)
		}
		if idle := len(rt.streams.pumps[2]); idle != 1 {
			t.Errorf("%s: %d idle two-hop pumps, want the one both streams ran on", failing, idle)
		}
		var hops []hopSpan
		for _, ev := range rec.Events() {
			if ev.Kind == trace.KindSpan && ev.Name == spanStreamHop && ev.Start >= resumed {
				hops = append(hops, hopSpan{ev.Lane.Node, ev.Dur})
			}
		}
		return payload, hops
	}
	wantPayload, wantHops := run("")
	if !bytes.Equal(wantPayload, streamPattern(n)) {
		t.Fatal("fresh runtime: payload differs from the source")
	}
	if len(wantHops) != 12 {
		t.Fatalf("fresh runtime: %d hop spans, want 12", len(wantHops))
	}
	for _, failing := range []string{"consumer", "fault"} {
		payload, hops := run(failing)
		if !bytes.Equal(payload, wantPayload) {
			t.Errorf("%s: payload differs from the fresh runtime's", failing)
		}
		if !reflect.DeepEqual(hops, wantHops) {
			t.Errorf("%s: hop spans\n %v\nwant %v", failing, hops, wantHops)
		}
	}
}

// BenchmarkStreamedMove times one streamed move from storage through DRAM
// into GPU memory on the discrete tree, 32 sub-chunks, in phantom mode:
// the pump's host cost per stream, with every stream after the first on
// one runtime.
func BenchmarkStreamedMove(b *testing.B) {
	const n = 32 << 20
	e := sim.NewEngine()
	tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
		StorageMiB: 256, DRAMMiB: 64, GPUMemMiB: 64})
	opts := DefaultOptions()
	opts.Phantom = true
	rt := NewRuntime(e, tree, opts)
	src, err := rt.CreateInput(tree.Root(), "in", n, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	_, err = rt.Run("bench", func(c *Ctx) error {
		dst, err := c.AllocAt(gpuLeaf(rt), n)
		if err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.MoveDataDownStreamed(dst, src, 0, 0, n, StreamOptions{SubChunks: 32}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
