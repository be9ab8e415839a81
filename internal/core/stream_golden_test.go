package core

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// goldenStreamCase is one streamed-move scenario whose every observable —
// elapsed time, breakdown, stream and resilience counters, the injector's
// draws and the recorded event stream in order — is pinned to constants.
// The constants were captured from the build that ran multi-hop and faulty
// streams on one process per hop and clean single-hop streams on engine
// callbacks, so they hold any rewrite of the pump to that build's exact
// event order.
type goldenStreamCase struct {
	name     string
	discrete bool             // 3-level SSD->DRAM->GPU tree; else 2-level SSD->DRAM
	faults   *fault.Config    // nil: no injector
	cache    bool             // staging cache on
	retry    RetryPolicy      // zero: the runtime default
	body     func(*Ctx) error // runs as the root task
	want     string
}

// goldenStreamCases builds the table. Bodies allocate their endpoints on
// the runtime of the Ctx they are handed, so every case is self-contained.
func goldenStreamCases() []goldenStreamCase {
	const n = 1<<20 + 13 // not a multiple of any sub-chunk count below
	leaf := func(c *Ctx) *topo.Node { return gpuLeaf(c.rt) }
	dram := func(c *Ctx) *topo.Node { return c.rt.tree.Root().Children[0] }
	input := func(c *Ctx) (*Buffer, error) {
		return c.rt.CreateInput(c.rt.tree.Root(), "in", n, streamPattern(n))
	}
	down := func(to func(*Ctx) *topo.Node, o StreamOptions) func(*Ctx) error {
		return func(c *Ctx) error {
			src, err := input(c)
			if err != nil {
				return err
			}
			dst, err := c.AllocAt(to(c), n)
			if err != nil {
				return err
			}
			return c.MoveDataDownStreamed(dst, src, 0, 0, n, o)
		}
	}
	up := func(from func(*Ctx) *topo.Node, o StreamOptions) func(*Ctx) error {
		return func(c *Ctx) error {
			src, err := c.AllocAt(from(c), n)
			if err != nil {
				return err
			}
			copy(src.Bytes(), streamPattern(n))
			dst, err := c.Alloc(n) // file-backed at the root
			if err != nil {
				return err
			}
			return c.MoveDataUpStreamed(dst, src, 0, 0, n, o)
		}
	}
	downUp := func(to func(*Ctx) *topo.Node, o StreamOptions) func(*Ctx) error {
		return func(c *Ctx) error {
			if err := down(to, o)(c); err != nil {
				return err
			}
			return up(to, o)(c)
		}
	}
	// beside runs stream next to a plain move of the same source started at
	// the same instant, so the two contend for the storage device and the
	// order of their same-instant events decides who is served first.
	beside := func(to func(*Ctx) *topo.Node, stream func(*Ctx, *Buffer, *Buffer) error) func(*Ctx) error {
		return func(c *Ctx) error {
			src, err := input(c)
			if err != nil {
				return err
			}
			task := func(streamed bool) func(*Ctx) error {
				return func(s *Ctx) error {
					dst, err := s.AllocAt(to(s), n)
					if err != nil {
						return err
					}
					if streamed {
						return stream(s, dst, src)
					}
					return s.rt.MoveData(s.p, dst, src, 0, 0, n)
				}
			}
			a := c.Spawn("streamed", c.node, task(true))
			b := c.Spawn("plain", c.node, task(false))
			if err := a.Wait(c); err != nil {
				return err
			}
			return b.Wait(c)
		}
	}
	// contended puts a rival task's event in the instant a multi-hop
	// stream's hops start, between the stream's own event and its first
	// hop: the rival marks the instant and sends a plain move of the same
	// source to the storage device, so the trace and the device's service
	// order both show whether the hops start after the rival or before it.
	contended := func(o StreamOptions) func(*Ctx) error {
		return func(c *Ctx) error {
			src, err := input(c)
			if err != nil {
				return err
			}
			a, err := c.AllocAt(gpuLeaf(c.rt), n)
			if err != nil {
				return err
			}
			b, err := c.AllocAt(gpuLeaf(c.rt), n)
			if err != nil {
				return err
			}
			lead, us := sim.Microseconds(10), sim.Microseconds(1)
			// From lead on, the stream's caller spends 7µs before its hops
			// start: a bookkeeping unit, then two DRAM staging slots of a
			// unit and 2µs setup each, the last 2µs scheduled at lead+5µs.
			sa := c.Spawn("streamed", c.node, func(s *Ctx) error {
				s.p.Sleep(lead)
				return s.MoveDataDownStreamed(a, src, 0, 0, n, o)
			})
			// Spawned one bookkeeping unit later, the rival wakes at
			// lead+6µs and schedules its lead+7µs wake after the caller's.
			sb := c.Spawn("rival", c.node, func(s *Ctx) error {
				s.p.Sleep(lead + 5*us)
				s.p.Sleep(us)
				s.TraceInstant(trace.TrackTask, "rival", 0)
				return s.rt.MoveData(s.p, b, src, 0, 0, n)
			})
			if err := sa.Wait(c); err != nil {
				return err
			}
			return sb.Wait(c)
		}
	}
	// overwrite caches four pieces of the input file in DRAM, unpinned so
	// they are ready victims, then streams up from the leaf into the file
	// itself: each sub-chunk's last hop invalidates the cached pieces it
	// overlaps and releases them before moving.
	overwrite := func(from func(*Ctx) *topo.Node, o StreamOptions) func(*Ctx) error {
		return func(c *Ctx) error {
			file, err := input(c)
			if err != nil {
				return err
			}
			for i := int64(0); i < 4; i++ {
				b, err := c.MoveDataDownCached(dram(c), file, i*(n/4), n/5)
				if err != nil {
					return err
				}
				if err := c.Unpin(b); err != nil {
					return err
				}
			}
			src, err := c.AllocAt(from(c), n)
			if err != nil {
				return err
			}
			return c.MoveDataUpStreamed(file, src, 0, 0, n, o)
		}
	}
	streamDown := func(o StreamOptions) func(*Ctx, *Buffer, *Buffer) error {
		return func(c *Ctx, dst, src *Buffer) error {
			return c.MoveDataDownStreamed(dst, src, 0, 0, n, o)
		}
	}
	faulty := &fault.Config{Seed: 5, TransferFailRate: 0.25, TransferDelayRate: 0.3}
	return []goldenStreamCase{
		{
			name: "single-hop-beside-move",
			body: beside(dram, streamDown(StreamOptions{SubChunks: 5})),
			want: "elapsed=1867981 busy=[0 0 0 0 4000 0 2666973 11000] cache=0/0/0/0 stream=1/5/5/1048589/1/0 res=0/0/0/0/0 inj=0/0/0/0 events=34 trace=4e1e7d82f7778d4c",
		},
		{
			name:     "multi-hop-beside-move",
			discrete: true,
			body:     beside(leaf, streamDown(StreamOptions{SubChunks: 5})),
			want:     "elapsed=1926457 busy=[0 0 0 0 64000 137380 2758355 20000] cache=0/0/0/0 stream=1/5/10/1048589/2/1 res=0/0/0/0/0 inj=0/0/0/0 events=65 trace=5466dfb6c65a0d10",
		},
		{
			name:     "multi-hop-contended-start",
			discrete: true,
			body:     contended(StreamOptions{SubChunks: 5}),
			want:     "elapsed=1973457 busy=[0 0 0 0 64000 137380 2764355 20000] cache=0/0/0/0 stream=1/5/10/1048589/2/1 res=0/0/0/0/0 inj=0/0/0/0 events=66 trace=2f7c69cae08ddfed",
		},
		{
			name: "single-hop-down",
			body: down(dram, StreamOptions{SubChunks: 5}),
			want: "elapsed=1057989 busy=[0 0 0 0 2000 0 1048989 7000] cache=0/0/0/0 stream=1/5/5/1048589/1/0 res=0/0/0/0/0 inj=0/0/0/0 events=28 trace=417b92401c9d9e02",
		},
		{
			name: "single-hop-up",
			body: up(dram, StreamOptions{SubChunks: 4}),
			want: "elapsed=2146647 busy=[0 0 0 0 152000 0 1987647 7000] cache=0/0/0/0 stream=1/4/4/1048589/1/0 res=0/0/0/0/0 inj=0/0/0/0 events=25 trace=68fb32e643b66299",
		},
		{
			name:     "multi-hop-down",
			discrete: true,
			body:     down(leaf, StreamOptions{SubChunks: 6}),
			want:     "elapsed=1180554 busy=[0 0 0 0 34000 147378 1108991 18000] cache=0/0/0/0 stream=1/6/12/1048589/2/1 res=0/0/0/0/0 inj=0/0/0/0 events=69 trace=ddb202bf7b0ea681",
		},
		{
			name:     "multi-hop-up",
			discrete: true,
			body:     up(leaf, StreamOptions{SubChunks: 5, Depth: 3}),
			want:     "elapsed=2276124 busy=[0 0 0 0 186000 137380 2047648 19000] cache=0/0/0/0 stream=1/5/10/1048589/4/3 res=0/0/0/0/0 inj=0/0/0/0 events=64 trace=6d45c65639e180d8",
		},
		{
			name:     "multi-hop-consumer",
			discrete: true,
			body: down(leaf, StreamOptions{SubChunks: 4,
				OnChunk: func(sub *Ctx, i int, off, sz int64) error {
					_, err := sub.LaunchKernel(gpuNoopKernel(nil), int(sz>>12))
					return err
				}}),
			want: "elapsed=1109692 busy=[0 171428 0 0 34000 127380 988990 18000] cache=0/0/0/0 stream=1/4/8/1048589/2/1 res=0/0/0/0/0 inj=0/0/0/0 events=57 trace=c07719591ca0cc37",
		},
		{
			name:   "single-hop-faults",
			faults: faulty,
			body:   downUp(dram, StreamOptions{SubChunks: 6}),
			want:   "elapsed=5437639 busy=[0 0 0 0 154000 0 3216639 67000] cache=0/0/0/0 stream=2/12/12/2097178/1/0 res=1/1/0/0/0 inj=1/4/0/0 events=70 trace=dec9498a66f281e6",
		},
		{
			name:     "multi-hop-faults",
			discrete: true,
			faults:   faulty,
			body:     downUp(leaf, StreamOptions{SubChunks: 6}),
			want:     "elapsed=7513515 busy=[0 0 0 0 218000 294756 3216639 187000] cache=0/0/0/0 stream=2/12/24/2097178/3/2 res=3/3/0/0/0 inj=3/10/0/0 events=146 trace=e3c0d64ede3ecd9c",
		},
		{
			name:     "multi-hop-up-invalidates",
			discrete: true,
			cache:    true,
			body:     overwrite(leaf, StreamOptions{SubChunks: 4}),
			want:     "elapsed=2927680 busy=[0 0 0 0 42000 127380 2826835 30000] cache=0/4/0/4 stream=1/4/8/1048589/3/2 res=0/0/0/0/0 inj=0/0/0/0 events=80 trace=e53ef9792ed015dd",
		},
		{
			name:   "single-hop-up-invalidates-faults",
			faults: faulty,
			cache:  true,
			body:   overwrite(dram, StreamOptions{SubChunks: 4}),
			want:   "elapsed=3908835 busy=[0 0 0 0 10000 0 2826835 72000] cache=0/4/0/4 stream=1/4/4/1048589/1/0 res=1/1/0/0/0 inj=1/2/0/0 events=56 trace=a527ea4c3eab9aa3",
		},
		{
			// Every injected delay overruns the deadline, so delayed sub-chunk
			// moves time out and are retried.
			name:     "retry-deadline",
			discrete: true,
			faults:   &fault.Config{Seed: 9, TransferDelayRate: 0.35, TransferDelay: sim.Milliseconds(3)},
			retry: RetryPolicy{MaxRetries: 8, BaseBackoff: sim.Microseconds(40),
				MaxBackoff: sim.Milliseconds(2), OpTimeout: sim.Milliseconds(2)},
			body: down(leaf, StreamOptions{SubChunks: 8}),
			want: "elapsed=23070772 busy=[0 0 0 0 34000 230142 1843486 382000] cache=0/0/0/0 stream=1/8/16/1048589/3/2 res=7/7/7/0/0 inj=0/7/0/0 events=110 trace=8ab7f0a03cf55b92",
		},
	}
}

// runGoldenStream runs one case and renders everything it pins as one line.
func runGoldenStream(t *testing.T, tc goldenStreamCase) string {
	t.Helper()
	e := sim.NewEngine()
	var tree *topo.Tree
	if tc.discrete {
		tree = topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
			StorageMiB: 64, DRAMMiB: 32, GPUMemMiB: 16})
	} else {
		tree = topo.APU(e, topo.APUConfig{Storage: topo.SSD, StorageMiB: 64, DRAMMiB: 32})
	}
	rec := trace.NewRecorder(trace.Options{})
	opts := DefaultOptions()
	opts.Trace = rec
	opts.Retry = tc.retry
	opts.Cache = CacheOptions{Enabled: tc.cache}
	if tc.faults != nil {
		opts.Faults = fault.New(e, *tc.faults)
	}
	rt := NewRuntime(e, tree, opts)
	stats, err := rt.Run(tc.name, tc.body)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "elapsed=%d busy=[", stats.Elapsed)
	for i, c := range trace.Categories {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", stats.Breakdown.Busy(c))
	}
	ss := rt.StreamStats()
	cs := stats.Breakdown.Cache()
	fmt.Fprintf(&sb, "] cache=%d/%d/%d/%d", cs.Hits, cs.Misses, cs.Evictions, cs.Invalidations)
	fmt.Fprintf(&sb, " stream=%d/%d/%d/%d/%d/%d res=%d/%d/%d/%d/%d inj=%d/%d/%d/%d",
		ss.Streams, ss.SubChunks, ss.HopMoves, ss.Bytes, ss.MaxInFlight, ss.MaxRing,
		stats.Resilience.Faults, stats.Resilience.Retries, stats.Resilience.Timeouts,
		stats.Resilience.Failovers, stats.Resilience.GaveUp,
		rt.Faults().Stats().TransferFails, rt.Faults().Stats().TransferDelays,
		rt.Faults().Stats().AllocFails, rt.Faults().Stats().OfflineRejects)
	h := fnv.New64a()
	evs := rec.Events()
	for _, ev := range evs {
		fmt.Fprintf(h, "%d|%d|%s|%d|%s|%d|%d|%d|%d\n", ev.Kind, ev.Cat, ev.Name,
			ev.Lane.Node, ev.Lane.Track, ev.Start, ev.Dur, ev.Value, ev.Seq)
	}
	fmt.Fprintf(&sb, " events=%d trace=%016x", len(evs), h.Sum64())
	return sb.String()
}

// TestStreamGolden pins every streamed-move observable of each case —
// timing, counters, fault draws and the event stream in order — so any
// change to how streamed moves are driven must reproduce the exact event
// order, not just the totals.
func TestStreamGolden(t *testing.T) {
	for _, tc := range goldenStreamCases() {
		t.Run(tc.name, func(t *testing.T) {
			if got := runGoldenStream(t, tc); got != tc.want {
				t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
			}
		})
	}
}
