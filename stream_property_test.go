package repro

// Streaming-engine equivalence properties: for any workload, seed, sub-chunk
// count, fault schedule, and cache setting, a run routing its staging moves
// through the streaming transfer engine must produce results byte-identical
// to the monolithic store-and-forward run — sub-chunked pipelined hops move
// the same bytes — and equal seeds must replay identical stream counters.

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/apps/gemm"
	"repro/internal/apps/hotspot"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
)

// streamCase is one drawn workload: which app, which input seed, how finely
// the moves are sub-chunked, and how hostile the environment is.
type streamCase struct {
	app       int     // 0 gemm, 1 hotspot
	seed      int64   // input-generation seed
	subChunks int     // requested sub-chunks per move (0 = adaptive)
	faultRate float64 // transfer-failure probability (0 = clean)
	cached    bool    // staging cache on alongside streaming
}

// drawStreamCase maps raw generator bytes onto a streamCase.
func drawStreamCase(app, seed, sc, faults, cached uint8) streamCase {
	counts := []int{0, 1, 2, 3, 5, 7}
	rates := []float64{0, 0.03, 0.06}
	return streamCase{
		app:       int(app) % 2,
		seed:      int64(seed%16) + 1,
		subChunks: counts[int(sc)%len(counts)],
		faultRate: rates[int(faults)%len(rates)],
		cached:    cached%2 == 1,
	}
}

// runStreamCase executes the drawn workload on the 3-level discrete tree —
// the topology where staging moves genuinely cross two hops — and returns
// the result bytes plus the run's stream counters.
func runStreamCase(t *testing.T, cc streamCase, streamed bool) ([]byte, core.StreamStats) {
	t.Helper()
	e := sim.NewEngine()
	tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
		StorageMiB: 64, DRAMMiB: 8, GPUMemMiB: 4})
	opts := core.DefaultOptions()
	if cc.cached {
		opts.Cache = core.CacheOptions{Enabled: true, Prefetch: true}
	}
	if cc.faultRate > 0 {
		opts.Faults = fault.New(e, fault.Config{Seed: 2000 + cc.seed, TransferFailRate: cc.faultRate})
	}
	rt := core.NewRuntime(e, tree, opts)
	// Only the streamed run sets stream options: the monolithic run makes
	// no streamed move, and the apps refuse options it would ignore.
	var so core.StreamOptions
	if streamed {
		so.SubChunks = cc.subChunks
	}

	var out []byte
	var err error
	switch cc.app {
	case 0:
		var res *gemm.Result
		res, err = gemm.RunNorthup(rt, gemm.Config{N: 128, Seed: cc.seed, ShardDim: 64,
			Streamed: streamed, StreamOpts: so})
		if err == nil {
			out = f32bytes(res.C)
		}
	default:
		var res *hotspot.Result
		// Two passes so the cached power chunks are genuinely re-read while
		// the streamed temperature chunks cycle up and back down.
		res, err = hotspot.RunNorthup(rt, hotspot.Config{N: 128, Seed: cc.seed,
			ChunkDim: 64, Iters: 2, Passes: 2, Streamed: streamed, StreamOpts: so})
		if err == nil {
			out = f32bytes(res.Temp)
		}
	}
	if err != nil {
		t.Fatalf("case %+v streamed=%v: %v", cc, streamed, err)
	}
	return out, rt.StreamStats()
}

func TestQuickStreamedMatchesMonolithicBitForBit(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is slow in -short mode")
	}
	seen := 0
	overlapped := int64(0)
	prop := func(app, seed, sc, faults, cached uint8) bool {
		cc := drawStreamCase(app, seed, sc, faults, cached)
		plain, plainStats := runStreamCase(t, cc, false)
		streamedOut, ss := runStreamCase(t, cc, true)
		if plainStats.Streams != 0 {
			t.Errorf("case %+v: monolithic run counted stream traffic: %+v", cc, plainStats)
			return false
		}
		if ss.Streams == 0 {
			t.Errorf("case %+v: streamed run never engaged the engine", cc)
			return false
		}
		if !bytes.Equal(plain, streamedOut) {
			t.Errorf("case %+v: streamed result differs from monolithic", cc)
			return false
		}
		// Equal seeds replay equal schedules: the counters, not just the
		// bytes, must reproduce.
		_, ss2 := runStreamCase(t, cc, true)
		if ss != ss2 {
			t.Errorf("case %+v: stream counters did not replay: %+v vs %+v", cc, ss, ss2)
			return false
		}
		seen++
		if ss.MaxInFlight > 1 {
			overlapped++
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
	if seen == 0 || overlapped == 0 {
		t.Fatalf("property exercised %d cases, %d with pipeline overlap; the engine never pipelined", seen, overlapped)
	}
	t.Logf("verified %d cases, %d with in-flight overlap", seen, overlapped)
}

func TestStreamedRunBitCorrectUnderFaultsAndCache(t *testing.T) {
	// The directed version of the property for each app at a fixed hostile
	// rate with the cache on, asserting the faults actually engaged (retries
	// observed) and the moves were genuinely sub-chunked — so a regression
	// cannot hide behind a quiet schedule or a degenerate split.
	for app := 0; app < 2; app++ {
		cc := streamCase{app: app, seed: 9, subChunks: 4, faultRate: 0.05, cached: true}
		plain, _ := runStreamCase(t, cc, false)
		e := sim.NewEngine()
		tree := topo.Discrete(e, topo.DiscreteConfig{Storage: topo.SSD,
			StorageMiB: 64, DRAMMiB: 8, GPUMemMiB: 4})
		opts := core.DefaultOptions()
		opts.Cache = core.CacheOptions{Enabled: true, Prefetch: true}
		opts.Faults = fault.New(e, fault.Config{Seed: 2000 + cc.seed, TransferFailRate: cc.faultRate})
		rt := core.NewRuntime(e, tree, opts)
		so := core.StreamOptions{SubChunks: cc.subChunks}
		var streamedOut []byte
		if app == 0 {
			res, err := gemm.RunNorthup(rt, gemm.Config{N: 128, Seed: cc.seed, ShardDim: 64,
				Streamed: true, StreamOpts: so})
			if err != nil {
				t.Fatal(err)
			}
			streamedOut = f32bytes(res.C)
		} else {
			res, err := hotspot.RunNorthup(rt, hotspot.Config{N: 128, Seed: cc.seed,
				ChunkDim: 64, Iters: 2, Passes: 2, Streamed: true, StreamOpts: so})
			if err != nil {
				t.Fatal(err)
			}
			streamedOut = f32bytes(res.Temp)
		}
		if !bytes.Equal(plain, streamedOut) {
			t.Errorf("app %d: streamed faulted run differs from monolithic faulted run", app)
		}
		if ss := rt.StreamStats(); ss.SubChunks <= ss.Streams {
			t.Errorf("app %d: moves not sub-chunked (stats %+v)", app, ss)
		}
		if r := rt.Resilience(); r.Retries == 0 {
			t.Errorf("app %d: fault schedule never engaged", app)
		}
	}
}
