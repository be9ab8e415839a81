package sim

import (
	"fmt"
	"testing"
)

// This file is the engine's dispatch harness: a synthetic workload shaped
// like the paper-scale event mix — many concurrent timer chains with
// colliding periods (the per-hop transfer and device-charge cadence of the
// GEMM/HotSpot/SpMV profile) plus periodic same-instant fan-out bursts (the
// wake storms the serve tier's fair queue and the HotSpot steal path
// generate). The same workload runs on either dispatch path, and
// TestDispatchPathsAgree requires identical virtual-time results from both
// and each path's work on its own mechanism.

// DispatchPath selects the dispatch mechanism a dispatch workload exercises.
type DispatchPath int

const (
	// PathCallback drives the workload with Engine.After timer chains:
	// every event is an inline callback, no coroutine switch.
	PathCallback DispatchPath = iota
	// PathProc drives the identical workload with full processes: every
	// event is a process resumption, a coroutine switch there and back.
	PathProc
)

func (p DispatchPath) String() string {
	if p == PathCallback {
		return "callback"
	}
	return "proc"
}

// DispatchConfig shapes a dispatch workload. All counts are exact, so the
// virtual-time outcome is a pure function of the config regardless of path.
type DispatchConfig struct {
	// Chains is the number of concurrent timer chains; chain i fires with
	// period 1 + i%7 ns, so chains continually collide on shared instants.
	Chains int
	// PerChain is how many times each chain fires.
	PerChain int
	// Burst is the width of each same-instant fan-out burst (0 disables).
	Burst int
	// BurstEvery is the virtual period between bursts (default 64ns).
	BurstEvery Time
	// BurstRounds is how many bursts fire.
	BurstRounds int
}

// Firings returns the workload-level firing count the config produces on
// either path: timer ticks plus burst leaf firings plus burst rounds.
func (c DispatchConfig) Firings() int64 {
	return int64(c.Chains)*int64(c.PerChain) +
		int64(c.BurstRounds)*int64(c.Burst+1)
}

// DispatchResult is one dispatch run's outcome. Fired and VirtualNS depend
// only on the config — the two paths must agree on them — while Events,
// Callbacks and Procs count the engine's work on the chosen path.
type DispatchResult struct {
	Path      DispatchPath
	Events    int64 // engine events dispatched
	Callbacks int64 // events run as inline callbacks
	Procs     int64 // processes spawned
	Fired     int64 // workload-level firings (path-invariant)
	VirtualNS int64 // final virtual clock (path-invariant)
}

// RunDispatch executes the workload on the given path and reports its
// counts.
func RunDispatch(cfg DispatchConfig, path DispatchPath) (DispatchResult, error) {
	if cfg.Chains < 1 || cfg.PerChain < 1 {
		return DispatchResult{}, fmt.Errorf("sim: dispatch config needs chains and per-chain counts, got %+v", cfg)
	}
	burstEvery := cfg.BurstEvery
	if burstEvery <= 0 {
		burstEvery = 64
	}
	e := NewEngine()
	var fired int64
	leaf := func() { fired++ }

	for i := 0; i < cfg.Chains; i++ {
		period := Time(1 + i%7)
		if path == PathCallback {
			n := 0
			var tick func()
			tick = func() {
				fired++
				n++
				if n < cfg.PerChain {
					e.After(period, tick)
				}
			}
			e.After(period, tick)
			continue
		}
		e.Spawn(fmt.Sprintf("chain%03d", i), func(p *Proc) {
			for n := 0; n < cfg.PerChain; n++ {
				p.Sleep(period)
				fired++
			}
		})
	}

	if cfg.Burst > 0 && cfg.BurstRounds > 0 {
		if path == PathCallback {
			round := 0
			var burst func()
			burst = func() {
				fired++
				for k := 0; k < cfg.Burst; k++ {
					e.After(0, leaf)
				}
				round++
				if round < cfg.BurstRounds {
					e.After(burstEvery, burst)
				}
			}
			e.After(burstEvery, burst)
		} else {
			e.Spawn("burst-driver", func(p *Proc) {
				for round := 0; round < cfg.BurstRounds; round++ {
					p.Sleep(burstEvery)
					fired++
					for k := 0; k < cfg.Burst; k++ {
						e.Spawn(fmt.Sprintf("burst%04d-%03d", round, k), func(q *Proc) {
							fired++
						})
					}
				}
			})
		}
	}

	if err := e.Run(); err != nil {
		return DispatchResult{}, fmt.Errorf("sim: dispatch workload (%v path): %w", path, err)
	}
	st := e.Stats()
	return DispatchResult{
		Path:      path,
		Events:    st.Events,
		Callbacks: st.Callbacks,
		Procs:     st.Procs,
		Fired:     fired,
		VirtualNS: int64(e.Now()),
	}, nil
}

// TestDispatchPathsAgree holds the two dispatch paths of the workload to
// identical virtual-time results — the callback fast path is an
// optimization, not a semantic fork — and each path to its own mechanism:
// every callback-path event is an inline callback with no process, so
// callback work falling back onto processes fails here.
func TestDispatchPathsAgree(t *testing.T) {
	cfg := DispatchConfig{Chains: 32, PerChain: 200, Burst: 16, BurstRounds: 8}
	cb, err := RunDispatch(cfg, PathCallback)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RunDispatch(cfg, PathProc)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Fired != pr.Fired || cb.VirtualNS != pr.VirtualNS {
		t.Fatalf("paths disagree: callback fired=%d virtual=%d, proc fired=%d virtual=%d",
			cb.Fired, cb.VirtualNS, pr.Fired, pr.VirtualNS)
	}
	if want := cfg.Firings(); cb.Fired != want {
		t.Fatalf("fired = %d, want %d", cb.Fired, want)
	}
	if cb.Events <= 0 || cb.Callbacks != cb.Events || cb.Procs != 0 {
		t.Fatalf("callback path ran off its fast path: %+v", cb)
	}
	if pr.Procs <= 0 {
		t.Fatalf("proc path spawned no processes: %+v", pr)
	}
}
