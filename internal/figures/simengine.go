package figures

import (
	"fmt"

	"repro/internal/sim"
)

// The sim-engine perf-gate entry: the DES engine measures its own dispatch
// speed on the paper-scale event mix (sim.RunDispatch — colliding timer
// chains plus same-instant wake bursts) over both dispatch paths. Virtual
// outcomes are deterministic and diffed two-sided like any other metric;
// the wall-clock rates and the callback-over-proc speedup are real-time
// measurements and are held to committed one-sided floors instead, so the
// gate fails on a dispatch-speed regression (a slow heap, a lost batch
// path, an accidental allocation storm) without flaking on machine speed.

// simEngineSpeedupFloor is the committed floor for the callback-over-proc
// dispatch speedup. Proc resumptions are coroutine switches, 6-7x the cost
// of an inline callback (5-7x under the race detector), so the floor sits
// well below that and still fails on the cliff it guards: callback work
// falling back onto procs, a ratio near 1.
const simEngineSpeedupFloor = 3.0

// simEngineRateMargin divides measured events/sec rates into their committed
// floors: wide enough to absorb the race detector (bench-check runs race-
// instrumented) and slower hardware, so a rate floor fails only when a
// dispatch path collapses; the speedup floor catches the smaller cliff.
const simEngineRateMargin = 50.0

// simEngineConfig is the paper-scale dispatch mix at a figures scale: 256
// concurrent chains (the per-hop transfer / device-charge population of the
// GEMM+HotSpot+SpMV profile) and 64-wide wake bursts (the serve tier's WFQ
// storms). The proc path runs a cost-identical but smaller slice of the
// same mix — rates are workload-size independent, and a million coroutine
// switches under the race detector would dominate the whole suite's wall
// time.
func simEngineConfig(scale int, path sim.DispatchPath) sim.DispatchConfig {
	if scale < 1 {
		scale = 1
	}
	c := sim.DispatchConfig{
		Chains:      256,
		PerChain:    2000 / scale,
		Burst:       64,
		BurstEvery:  4,
		BurstRounds: 8000 / scale,
	}
	if path == sim.PathProc {
		c.PerChain /= 8
		c.BurstRounds /= 8
	}
	return c
}

// simEnginePerf runs the dispatch workload on both paths and returns the
// profile entry plus the floors for its wall-clock metrics.
func simEnginePerf(o Options) (AppPerf, map[string]float64, error) {
	cbCfg := simEngineConfig(o.Scale, sim.PathCallback)
	prCfg := simEngineConfig(o.Scale, sim.PathProc)

	cb, err := sim.RunDispatch(cbCfg, sim.PathCallback)
	if err != nil {
		return AppPerf{}, nil, err
	}
	pr, err := sim.RunDispatch(prCfg, sim.PathProc)
	if err != nil {
		return AppPerf{}, nil, err
	}
	// Semantic guard inside the suite itself: on the proc config, the two
	// paths must produce identical virtual-time results — the fast path is
	// an optimization, not a fork of the simulation's meaning.
	cbSmall, err := sim.RunDispatch(prCfg, sim.PathCallback)
	if err != nil {
		return AppPerf{}, nil, err
	}
	if cbSmall.Fired != pr.Fired || cbSmall.VirtualNS != pr.VirtualNS {
		return AppPerf{}, nil, fmt.Errorf(
			"figures: dispatch paths disagree: callback fired=%d virtual=%d, proc fired=%d virtual=%d",
			cbSmall.Fired, cbSmall.VirtualNS, pr.Fired, pr.VirtualNS)
	}

	entry := AppPerf{
		Name:      "sim-engine",
		ElapsedNS: cb.VirtualNS,
		Metrics: map[string]float64{
			// Deterministic outcomes, two-sided like every other metric.
			`sim_engine_events{path="callback"}`: float64(cb.Events),
			`sim_engine_events{path="proc"}`:     float64(pr.Events),
			`sim_engine_fired`:                   float64(cb.Fired),
		},
	}
	if o.Scale > 1 {
		// Reduced-scale runs (tests, smoke checks) shrink the workload until
		// wall times are a few milliseconds and the rates are noise. Only the
		// committed full-scale mix carries the real-time claim, so only it
		// emits the floor-gated metrics — which also keeps reduced-scale
		// baseline documents bit-for-bit deterministic.
		return entry, nil, nil
	}
	speedup := 0.0
	if pr.EventsPerSec > 0 {
		speedup = cb.EventsPerSec / pr.EventsPerSec
	}
	// Wall-clock rates, one-sided against the committed floors.
	entry.Metrics[`sim_engine_events_per_sec{path="callback"}`] = cb.EventsPerSec
	entry.Metrics[`sim_engine_events_per_sec{path="proc"}`] = pr.EventsPerSec
	entry.Metrics[`sim_engine_speedup`] = speedup
	floors := map[string]float64{
		`sim_engine_events_per_sec{path="callback"}`: cb.EventsPerSec / simEngineRateMargin,
		`sim_engine_events_per_sec{path="proc"}`:     pr.EventsPerSec / simEngineRateMargin,
		`sim_engine_speedup`:                         simEngineSpeedupFloor,
	}
	return entry, floors, nil
}
